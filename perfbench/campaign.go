package main

import (
	"fmt"
	"reflect"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/eval"
)

const (
	// campaignTrials is the trial count of every Table II column and of
	// every attack-matrix cell in one pass: 7 devices x 2 x 20 plus
	// 6 attacks x 2 channels x 20 = 520 hermetic worlds.
	campaignTrials  = 20
	campaignWorkers = 2
	// campaignPoll is how often the dashboard reads the live progress
	// line: the period at which benchtables -progress prints it.
	campaignPoll = 500 * time.Millisecond
	// campaignSetups is how many serial reference passes set-up makes.
	campaignSetups = 3
)

// campaignRows is one pass's output: the paper's Table II (page race
// vs PLOC page blocking) and the cross-attack matrix.
type campaignRows struct {
	table2 []eval.TableIIRow
	matrix []eval.AttackRow
}

func (c campaignRows) trials() int {
	n := 0
	for _, row := range c.table2 {
		n += 2 * row.Trials
	}
	for _, row := range c.matrix {
		n += row.Trials
	}
	return n
}

// campaignPass runs both tables with the given worker count.
func campaignPass(seed int64, workers int) (campaignRows, error) {
	t2, err := eval.RunTableIIWorkers(seed, campaignTrials, workers)
	if err != nil {
		return campaignRows{}, err
	}
	mx, err := eval.RunAttackMatrixWorkers(seed, campaignTrials, workers)
	if err != nil {
		return campaignRows{}, err
	}
	return campaignRows{table2: t2, matrix: mx}, nil
}

// paperInvariants checks what the paper and the related-attack library
// establish regardless of seed: PLOC page blocking always wins the race,
// enhanced Passkey Entry always stops the sniffing attack, and on a
// clean channel every successful attack with a rule is detected. It
// returns one entry per check made, nil where the check held.
func paperInvariants(c campaignRows) []error {
	var checks []error
	check := func(ok bool, format string, args ...any) {
		if ok {
			checks = append(checks, nil)
		} else {
			checks = append(checks, fmt.Errorf(format, args...))
		}
	}
	for _, row := range c.table2 {
		check(row.BlockingSuccess == row.Trials, "Table II %s: PLOC %d/%d", row.Device, row.BlockingSuccess, row.Trials)
	}
	for _, row := range c.matrix {
		if row.Attack == "passkey-guard" {
			check(row.Succeeded == 0, "passkey-guard (%s) succeeded %d/%d", row.Channel, row.Succeeded, row.Trials)
		}
		if row.Channel == "clean" && row.DetectorKind != "-" {
			check(row.Detected == row.Succeeded, "%s on the clean channel: %d detections of %d successes", row.Attack, row.Detected, row.Succeeded)
		}
	}
	return checks
}

// campaignReference is campaign set-up: the serial (workers=1) passes
// every timed pass is checked against, built campaignSetups times.
func campaignReference(r *run) (campaignRows, error) {
	var ref campaignRows
	var took []float64
	for i := 0; i < campaignSetups; i++ {
		t := time.Now()
		rows, err := campaignPass(r.seed, 1)
		if err != nil {
			return ref, err
		}
		took = append(took, time.Since(t).Seconds())
		if i == 0 {
			ref = rows
			continue
		}
		var problem error
		if !reflect.DeepEqual(rows, ref) {
			problem = fmt.Errorf("serial campaign rows differ between set-ups 1 and %d", i+1)
		}
		r.op(problem)
	}
	r.sample("setup_s", took, "s")
	for _, err := range paperInvariants(ref) {
		r.op(err)
	}
	return ref, nil
}

// campaignStats is one run of timed passes.
type campaignStats struct {
	// Per pass: trials/s, CPU per trial and the mean wall time of one
	// trial, which is exact (the Progress histogram's count and sum are;
	// its quantiles are only resolved to a power-of-two bucket).
	rate, cpuNS, trialMS []float64
	readMS               []float64 // per dashboard read
	wall                 time.Duration
	prog                 campaign.ProgressSnapshot // over the whole run
}

func runCampaign(r *run) error {
	ref, err := campaignReference(r)
	if err != nil {
		return err
	}
	st, err := campaignRun(r, ref, r.seconds)
	if err != nil {
		return err
	}
	r.sample("throughput_per_s", st.rate, "1/s")
	r.sample("cpu_ns_per_op", st.cpuNS, "ns")
	r.sample("latency_p50_ms", st.trialMS, "ms")
	r.notef("latency_p50_ms: median over passes of the mean per-trial wall time, %d trials in all", st.prog.Latency.Count)
	r.sample("query_p50_ms", st.readMS, "ms")
	r.set("peak_rss_mb", peakRSSMB(), "MB")
	return nil
}

// campaignRun times passes with campaignWorkers workers for dur (at
// least one pass), each checked against the serial reference, while a
// dashboard goroutine renders the live campaign.Progress line.
func campaignRun(r *run, ref campaignRows, dur time.Duration) (campaignStats, error) {
	var st campaignStats
	prog := &campaign.Progress{}
	eval.SetProgress(prog)
	defer eval.SetProgress(nil)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(campaignPoll)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			t := time.Now()
			_ = prog.Snapshot().String()
			st.readMS = append(st.readMS, ms(time.Since(t)))
		}
	}()

	start := time.Now()
	deadline := start.Add(dur)
	before := prog.Snapshot().Latency
	var err error
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		cpu0 := cpuTime()
		t := time.Now()
		var rows campaignRows
		if rows, err = campaignPass(r.seed, campaignWorkers); err != nil {
			break
		}
		wall := time.Since(t)
		cpu := cpuTime() - cpu0
		after := prog.Snapshot().Latency
		n := rows.trials()
		st.rate = append(st.rate, float64(n)/wall.Seconds())
		st.cpuNS = append(st.cpuNS, float64(cpu)/float64(n))
		st.trialMS = append(st.trialMS, (after.MeanUS*float64(after.Count)-before.MeanUS*float64(before.Count))/float64(after.Count-before.Count)/1e3)
		before = after
		var problem error
		if !reflect.DeepEqual(rows, ref) {
			problem = fmt.Errorf("pass %d: rows with %d workers differ from the serial rows", i, campaignWorkers)
		}
		r.op(problem)
	}
	st.wall = time.Since(start)
	close(stop)
	wg.Wait()
	st.prog = prog.Snapshot()
	return st, err
}
