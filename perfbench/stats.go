package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is not modified. It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// timed runs fn reps times and returns each run's wall time in seconds.
func timed(reps int, fn func() error) ([]float64, error) {
	out := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t).Seconds())
	}
	return out, nil
}

// env stamps a result with where it was measured: CPUs, GOMAXPROCS, Go
// version, kernel, and the host's CPU steal share over the run, read
// from /proc/stat (steal ticks over all ticks of the "cpu" line).
type env struct {
	stat0 []uint64
}

func startEnv() *env { return &env{stat0: procStat()} }

func (e *env) finish() string {
	steal := "n/a"
	if s1 := procStat(); len(s1) > 7 && len(e.stat0) > 7 {
		var total uint64
		for i := range s1 {
			total += s1[i] - e.stat0[i]
		}
		if total > 0 {
			steal = fmt.Sprintf("%.2f%%", 100*float64(s1[7]-e.stat0[7])/float64(total))
		}
	}
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s kernel=%s cpu_steal=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), kernel, steal)
}

// procStat returns the tick counters of /proc/stat's aggregate "cpu"
// line (user nice system idle iowait irq softirq steal ...), or nil.
func procStat() []uint64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return nil
	}
	out := make([]uint64, 0, len(f)-1)
	for _, s := range f[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return nil
		}
		out = append(out, v)
	}
	return out
}
