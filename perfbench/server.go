package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/serve"
)

// serveEnv marks a process started as the benchmark's server. An
// environment variable rather than an argument, so the test binary can host
// the server the same way the benchmark binary does.
const serveEnv = "PERFBENCH_SERVE"

// serveMain hosts one serve.Server with ttserve's default Config on a
// loopback listener. It prints the bound address and serves until its
// standard input closes, answering each "cpu" line on it with the CPU time it
// has used so far, in ns. Then it drains and prints its peak resident memory
// in kB.
func serveMain() int {
	srv := serve.New(serve.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench serve:", err)
		return 1
	}
	hs := &http.Server{Handler: withReference(srv.Handler()), ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	fmt.Println(ln.Addr().String())

	for in := bufio.NewScanner(os.Stdin); in.Scan(); { // ends when the benchmark process closes the pipe
		if in.Text() == "cpu" {
			fmt.Println(cpuTime().Nanoseconds())
		}
	}
	srv.SetDraining(true)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err = hs.Shutdown(ctx)
	srv.Close()
	if serr := <-served; !errors.Is(serr, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "perfbench serve:", serr)
		return 1
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench serve: drain:", err)
		return 1
	}
	kb, err := peakRSSKB()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench serve:", err)
		return 1
	}
	fmt.Println(kb)
	return 0
}

// cpuTime is the user and system CPU time this process has used. The kernel
// leaves out time the hypervisor gave the CPUs to other guests (steal), and a
// process waiting for a CPU uses none, so on a shared host it moves far less
// with other tenants' load than a wall-clock time does.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSKB reads this process's peak resident set size (VmHWM) in kB.
func peakRSSKB() (int64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	return 0, errors.New("reading peak RSS: no VmHWM line")
}

// serverProc is a running server child process.
type serverProc struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Scanner
	base  string // http://host:port
}

// startServer launches this executable as a server child and waits for its
// address.
func startServer() (*serverProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating the benchmark binary: %w", err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), serveEnv+"=1")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting the server: %w", err)
	}
	p := &serverProc{cmd: cmd, stdin: stdin, out: bufio.NewScanner(stdout)}
	if !p.out.Scan() {
		_, _ = p.stop()
		return nil, errors.New("server exited before reporting its address")
	}
	p.base = "http://" + p.out.Text()
	return p, nil
}

// stop drains the server, waits for it to exit, and returns its peak
// resident memory in MB.
func (p *serverProc) stop() (float64, error) {
	_ = p.stdin.Close()
	var kb int64
	var perr error
	if p.out.Scan() {
		kb, perr = strconv.ParseInt(p.out.Text(), 10, 64)
	} else {
		perr = errors.New("server exited without reporting its peak RSS")
	}
	for p.out.Scan() { // drain so Wait cannot block on a full pipe
	}
	if err := p.cmd.Wait(); err != nil {
		return 0, fmt.Errorf("server exit: %w", err)
	}
	return float64(kb) / 1024, perr
}

// cpu asks the server for the CPU time it has used so far.
func (p *serverProc) cpu() (time.Duration, error) {
	if _, err := io.WriteString(p.stdin, "cpu\n"); err != nil {
		return 0, fmt.Errorf("asking the server for its CPU time: %w", err)
	}
	if !p.out.Scan() {
		return 0, errors.New("server exited before reporting its CPU time")
	}
	ns, err := strconv.ParseInt(p.out.Text(), 10, 64)
	if err != nil || ns <= 0 {
		return 0, fmt.Errorf("server reported CPU time %q", p.out.Text())
	}
	return time.Duration(ns), nil
}

// stats fetches the server's counters (Server.Metrics().Snapshot() plus
// gauges, as /v1/stats renders them).
func (p *serverProc) stats(hc *http.Client) (map[string]float64, error) {
	resp, err := hc.Get(p.base + "/v1/stats")
	if err != nil {
		return nil, fmt.Errorf("fetching /v1/stats: %w", err)
	}
	defer resp.Body.Close()
	var raw map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		return nil, fmt.Errorf("decoding /v1/stats: %w", err)
	}
	out := make(map[string]float64, len(raw))
	for k, v := range raw {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out, nil
}
