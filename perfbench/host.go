package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

func newMeta(cfg runConfig, clients int, requests int64, steal float64) meta {
	return meta{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     gitCommit("."),
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    cfg.window.Seconds(),
		Trace:      cfg.trace,
		Clients:    clients,
		Requests:   requests,
		StealShare: steal,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads the checked-out commit from dir/.git without running git;
// "unknown" when dir is not a git checkout.
func gitCommit(dir string) string {
	git := filepath.Join(dir, ".git")
	head, err := os.ReadFile(filepath.Join(git, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(git, ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(git, "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// cpuTicks returns the host's total and steal CPU ticks from /proc/stat.
// Steal is time the hypervisor gave the CPUs to someone else: a run with a
// large steal share measured a slower machine.
func cpuTicks() (total, steal uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	// user nice system idle iowait irq softirq steal; guest time that
	// follows is already counted in user.
	fields := strings.Fields(line)
	for i := 1; i < len(fields) && i <= 8; i++ {
		v, _ := strconv.ParseUint(fields[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return total, steal
}

// stealMeter measures the steal share over an interval.
type stealMeter struct{ total, steal uint64 }

func startSteal() stealMeter {
	t, s := cpuTicks()
	return stealMeter{t, s}
}

func (m stealMeter) share() float64 {
	t, s := cpuTicks()
	return ratio(float64(s-m.steal), float64(t-m.total))
}
