// Command perfbench is the repository's benchmark: three workloads over
// the detection pipeline and the attack simulator, each checked against
// a reference and reported as one JSON line.
//
//	perfbench --workload replay|live|campaign --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics of the workload; with
// --trace 1 it prints the per-layer ledger instead (see README.md). The
// last line of standard output is the JSON result; the lines before it
// are a human-readable report, including the run environment.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run accumulates one invocation's operations, checks and metrics.
type run struct {
	seed    int64
	seconds time.Duration
	dir     string // scratch directory for sockets and stores

	attempted int
	failed    int
	metrics   map[string]metric
	notes     []string // report lines printed above the JSON result
}

func newRun(seed int64, seconds time.Duration, dir string) *run {
	return &run{seed: seed, seconds: seconds, dir: dir, metrics: map[string]metric{}}
}

// op counts one attempted operation or check; a non-nil err marks it
// failed.
func (r *run) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", err)
	}
}

func (r *run) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// sample sets a metric from the median of xs and notes its sample count.
func (r *run) sample(name string, xs []float64, unit string) {
	r.set(name, median(xs), unit)
	r.notef("%s: median %.6g %s over %d samples", name, median(xs), unit, len(xs))
}

func (r *run) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(*run) error{
	"replay":   runReplay,
	"live":     runLive,
	"campaign": runCampaign,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: replay, live or campaign")
		seed     = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = flag.Int("seconds", 0, "measured seconds (required)")
		trace    = flag.Int("trace", 0, "1 prints the per-layer ledger instead of the end-to-end metrics")
	)
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload replay|live|campaign --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	var dir string
	err := os.MkdirAll(".bench_build", 0o755)
	if err == nil {
		dir, err = os.MkdirTemp(".bench_build", "run-")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r := newRun(*seed, time.Duration(*seconds)*time.Second, dir)
	env := startEnv()
	if *trace == 1 {
		err = runTrace(r, *workload)
	} else {
		err = fn(r)
	}
	r.notef("env: %s", env.finish())
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if r.attempted == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation was attempted")
		os.Exit(1)
	}
	r.emit(*workload, *trace == 1)
}

// emit prints the report lines and the final JSON result.
func (r *run) emit(workload string, traced bool) {
	mode := "end-to-end"
	if traced {
		mode = "per-layer (traced)"
	}
	fmt.Printf("perfbench %s, seed %d, %s, %s\n", workload, r.seed, r.seconds, mode)
	for _, n := range r.notes {
		fmt.Println("  " + n)
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Printf("  %-40s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("  ops: %d attempted, %d failed\n", r.attempted, r.failed)
	out, err := json.Marshal(result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// path returns a location inside the run's scratch directory. It stays
// relative to the working directory so Unix socket paths remain short
// wherever the checkout lives.
func (r *run) path(name string) string { return filepath.Join(r.dir, name) }
