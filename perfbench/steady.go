package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// steadyMain is the steadiness runner: it repeats each named workload with
// seeds seed, seed+1, ..., each run in its own process, and prints every
// metric's median, quartiles and spread (interquartile distance over the
// median). BENCHMARK.json's bounds are set from these spreads.
func steadyMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench steady", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := fs.String("workload", strings.Join(workloadNames, ","), "comma-separated workloads")
	runs := fs.Int("runs", 10, "runs per workload")
	seed := fs.Int64("seed", defaultSeed, fmt.Sprintf("seed of the first run; run i uses seed+i (hold-out seed: %d)", holdoutSeed))
	seconds := fs.Int("seconds", 30, "length of each run's measured window")
	trace := fs.Int("trace", 0, "1: repeat traced runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench steady:", err)
		return 1
	}
	for _, wl := range strings.Split(*names, ",") {
		vals := map[string][]float64{}
		units := map[string]string{}
		for i := 0; i < *runs; i++ {
			s := *seed + int64(i)
			cmd := exec.Command(exe, "--workload", wl, "--seed", strconv.FormatInt(s, 10),
				"--seconds", strconv.Itoa(*seconds), "--trace", strconv.Itoa(*trace))
			cmd.Stderr = stderr
			out, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(stderr, "perfbench steady: %s seed %d: %v\n", wl, s, err)
				return 1
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				fmt.Fprintf(stderr, "perfbench steady: %s seed %d: %v\n", wl, s, err)
				return 1
			}
			var md meta
			for _, l := range lines {
				if rest, ok := bytes.CutPrefix(l, []byte("# meta ")); ok {
					_ = json.Unmarshal(rest, &md) // the steal share is informative only
				}
			}
			fmt.Fprintf(stdout, "%s seed %d (steal %.1f%%):", wl, s, 100*md.StealShare)
			for _, name := range sortedKeys(res.Metrics) {
				m := res.Metrics[name]
				vals[name] = append(vals[name], m.Value)
				units[name] = m.Unit
				fmt.Fprintf(stdout, " %s=%.4g", name, m.Value)
			}
			fmt.Fprintf(stdout, " failed=%d/%d\n", res.Failed, res.Attempted)
		}
		fmt.Fprintf(stdout, "%-11s %-26s %12s %12s %12s %8s  %s\n", wl, "metric", "median", "q1", "q3", "spread", "unit")
		for _, name := range sortedKeys(vals) {
			v := vals[name]
			q1, med, q3 := quartiles(v)
			fmt.Fprintf(stdout, "%-11s %-26s %12.4f %12.4f %12.4f %7.1f%%  %s\n",
				wl, name, med, q1, q3, 100*ratio(q3-q1, med), units[name])
		}
	}
	return 0
}

// quartiles returns the quartiles of v by the exclusive method (Python's
// statistics.quantiles(v, n=4) default), which the acceptance check uses.
func quartiles(v []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), v...)
	sort.Float64s(d)
	n := len(d)
	if n < 2 {
		if n == 1 {
			return d[0], d[0], d[0]
		}
		return 0, 0, 0
	}
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}
