// Command e2ebench is the repository benchmark: it drives real
// topsserve/topsrouter processes built from this checkout with one load
// generator, checks every answer, and prints the end-to-end metrics
// (-trace 0) or hosts the same topologies in-process behind span-recording
// wrappers and prints the per-layer metrics (-trace 1). See README.md.
//
// Run it through run.sh, which builds the binaries first:
//
//	bash e2ebench/run.sh --workload churn --seed 3 --seconds 24 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// env is what every run shares.
type env struct {
	bin     string // directory holding topsserve and topsrouter
	work    string // build products and run files, inside the checkout
	seed    int64
	seconds time.Duration
	nproc   int
	ps      *procs
}

type metric struct {
	value float64
	unit  string
}

// report is one run's outcome.
type report struct {
	metrics   map[string]metric
	printed   map[string]metric // measured and printed, but not in the result line
	notes     []string
	attempted int
	failed    int
	invalid   []string
	firstErr  string
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, printed: map[string]metric{}}
}

func (r *report) add(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

// addPrinted keeps a metric out of the result line: on a shared 2-core
// host its spread from run to run can exceed the largest bound a gated
// metric may have (see README.md).
func (r *report) addPrinted(name string, v float64, unit string) { r.printed[name] = metric{v, unit} }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// absorb adds a phase's operation counts to the run's.
func (r *report) absorb(rec *recorder) {
	r.attempted += rec.attempted
	r.failed += rec.failed
	if r.firstErr == "" {
		r.firstErr = rec.firstErr
	}
}

// percentiles reports a timing at p50, gated or only printed, and prints
// it at the named tail percentile p, which must have at least minBeyond
// samples beyond it.
func (r *report) percentiles(rec *recorder, prefix string, p float64, pname string, gateP50 bool) {
	xs := rec.lat[prefix]
	n := len(xs)
	if beyond(n, p) < minBeyond {
		r.invalid = append(r.invalid, fmt.Sprintf("%s: %d samples leave %d beyond p%g (need %d)", prefix, n, beyond(n, p), 100*p, minBeyond))
	}
	if gateP50 {
		r.add(prefix+"_p50_ms", windowedQuantile(xs, 0.5), "ms")
	} else {
		r.addPrinted(prefix+"_p50_ms", windowedQuantile(xs, 0.5), "ms")
	}
	r.addPrinted(prefix+"_"+pname+"_ms", windowedQuantile(xs, p), "ms")
	if hp := highestPercentile(n); hp > 0 {
		r.note("%s: n=%d, highest percentile with %d beyond: p%g = %.3f ms", prefix, n, minBeyond, 100*hp, quantile(append([]float64(nil), xs...), hp))
	}
}

// lag checks that the generator kept its schedule.
func (r *report) lag(phase string, rec *recorder) float64 {
	p99 := quantile(rec.lag, 0.99)
	r.note("loadgen lag p99 in %s phase: %.3f ms over %d sends", phase, p99, len(rec.lag))
	if p99 > ms(maxLagP99) {
		r.invalid = append(r.invalid, fmt.Sprintf("%s phase: generator lag p99 %.3f ms exceeds %v", phase, p99, maxLagP99))
	}
	return p99
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload: interactive, routed or churn")
		seed    = flag.Int64("seed", 1, "input seed: query order, flipped sites, GPS feed")
		seconds = flag.Int("seconds", 24, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1 hosts the topologies in-process and reports per-layer metrics")
		bin     = flag.String("bin", "", "directory with the topsserve and topsrouter binaries")
		work    = flag.String("work", ".bench_build", "directory for build products and run files")
	)
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 2
	}
	if *seconds < 1 || (*trace == 0 && *bin == "") {
		fmt.Fprintln(os.Stderr, "e2ebench: need -seconds >= 1 and, untraced, -bin")
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runBudget)
	defer cancel()
	e := &env{bin: *bin, work: *work, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		nproc: runtime.NumCPU(), ps: &procs{}}
	defer e.ps.stopAll()
	if err := os.MkdirAll(filepath.Join(e.work, "tmp"), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}

	var rep *report
	if *trace == 1 {
		rep, err = runTraced(ctx, e, w)
	} else {
		rep, err = runUntraced(ctx, e, w)
	}
	if err == nil && ctx.Err() != nil {
		err = ctx.Err()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	return emit(rep)
}

// emit prints every metric as a line with its unit, then the result object
// as the last line. It exits non-zero on any wrong answer or invalid run.
func emit(rep *report) int {
	for _, n := range rep.notes {
		fmt.Println("#", n)
	}
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	out := map[string]map[string]any{}
	for _, n := range names {
		m := rep.metrics[n]
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			rep.invalid = append(rep.invalid, n+" has no value")
			continue
		}
		fmt.Printf("%-34s %14.6f %s\n", n, m.value, m.unit)
		out[n] = map[string]any{"value": m.value, "unit": m.unit}
	}
	names = names[:0]
	for n := range rep.printed {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.printed[n]
		fmt.Printf("%-34s %14.6f %s (not gated)\n", n, m.value, m.unit)
	}
	failFrac := float64(rep.failed) / float64(max(rep.attempted, 1))
	fmt.Printf("%-34s %14.6f %s (%d of %d operations)\n", "fail_frac", failFrac, "ratio", rep.failed, rep.attempted)
	if rep.firstErr != "" {
		fmt.Println("# first failure:", rep.firstErr)
	}
	for _, s := range rep.invalid {
		fmt.Println("# invalid run:", s)
	}
	correct := rep.failed == 0 && len(rep.invalid) == 0
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": max(rep.attempted, 1), "failed": rep.failed, "metrics": out,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}
