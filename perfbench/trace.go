package main

import (
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/eval"
	"repro/internal/forensics"
	"repro/internal/sentinel"
	"repro/internal/snoop"
	"repro/internal/tsdb"
)

// perLayer lists the traced run's metrics, in BENCHMARK.json's order.
// Every traced run prints all of them: it traces each workload, giving
// the named one half of the measured time and the others a quarter.
var perLayer = [][2]string{
	{"snoop.scan_ns_per_rec", "ns"},
	{"snoop.kept_ratio", "ratio"},
	{"snoop.synth_s", "s"},
	{"forensics.reduce_ns_per_kept", "ns"},
	{"forensics.analyze_ns_per_rec", "ns"},
	{"forensics.snapshot_us", "us"},
	{"forensics.snapshot_bytes", "bytes"},
	{"forensics.restore_us", "us"},
	{"forensics.findings", "count"},
	{"sentinel.dial_ms", "ms"},
	{"sentinel.drain_ms", "ms"},
	{"sentinel.send_ns_per_rec", "ns"},
	{"sentinel.live_overhead_ns_per_rec", "ns"},
	{"sentinel.stage_scan_ns_per_rec", "ns"},
	{"sentinel.stage_push_ns_per_rec", "ns"},
	{"sentinel.stage_drain_ns_per_rec", "ns"},
	{"sentinel.stage_emit_ns_per_rec", "ns"},
	{"sentinel.events", "count"},
	{"sentinel.events_dropped", "count"},
	{"sentinel.persist_dropped", "count"},
	{"sentinel.checkpoints", "count"},
	{"sentinel.detect_p99_ms", "ms"},
	{"sentinel.gen_late_max_ms", "ms"},
	{"sentinel.query_encode_ms", "ms"},
	{"tsdb.append_ns_per_frame", "ns"},
	{"tsdb.sync_series_ms", "ms"},
	{"tsdb.query_ms", "ms"},
	{"tsdb.query_frames", "count"},
	{"campaign.trial_mean_ms", "ms"},
	{"campaign.trial_p90_ms", "ms"},
	{"campaign.worker_idle_ratio", "ratio"},
	{"campaign.retries", "count"},
	{"core.testbed_us", "us"},
	{"core.run_us.baseline-mitm", "us"},
	{"core.run_us.page-blocking", "us"},
	{"core.run_us.stealtooth", "us"},
	{"core.run_us.happy-mitm", "us"},
	{"core.run_us.blurtooth", "us"},
	{"core.run_us.oob-mitm", "us"},
	{"core.run_us.passkey-sniff", "us"},
	{"core.run_us.passkey-guard", "us"},
	{"sim.steps_per_trial", "count"},
	{"sim.ns_per_step", "ns"},
	{"eval.table2_ms", "ms"},
	{"eval.matrix_ms", "ms"},
	{"ledger.replay_untraced_ns_per_rec", "ns"},
	{"ledger.replay_layers_ns_per_rec", "ns"},
	{"ledger.replay_residual_ns_per_rec", "ns"},
	{"ledger.trace_overhead_ns_per_rec", "ns"},
}

const (
	// probeReps is how many passes each single-layer probe makes; the
	// median is reported.
	probeReps = 3
	// scenarioTrials is the serial worlds per scenario in the core probe.
	scenarioTrials = 10
)

// runTrace is the traced run: the per-layer ledger of every workload.
func runTrace(r *run, workload string) error {
	share := map[string]float64{"replay": 0.25, "live": 0.25, "campaign": 0.25}
	share[workload] = 0.5
	slice := func(w string) time.Duration { return time.Duration(share[w] * float64(r.seconds)) }

	if err := traceReplay(r, slice("replay")); err != nil {
		return fmt.Errorf("tracing replay: %w", err)
	}
	if err := traceLive(r, slice("live")); err != nil {
		return fmt.Errorf("tracing live: %w", err)
	}
	if err := traceCampaign(r, slice("campaign")); err != nil {
		return fmt.Errorf("tracing campaign: %w", err)
	}
	all := r.metrics
	r.metrics = map[string]metric{}
	for _, m := range perLayer {
		v, ok := all[m[0]]
		if !ok {
			return fmt.Errorf("traced run did not measure %s", m[0])
		}
		r.metrics[m[0]] = v
	}
	return nil
}

// scanProbe splits a pass over a capture into the block scan with the
// prefilter pushed into it (snoop) and the reducer (forensics).
type scanProbe struct {
	scan, reduce  time.Duration
	scanned, kept int
	findings      int
}

// probeScan drains sc, feeding kept records to det, and stops early
// after the batch that reaches frame stopAt (0 = scan to the end).
func probeScan(sc *snoop.BatchScanner, det *forensics.Detector, stopAt int) (scanProbe, error) {
	var p scanProbe
	var b snoop.RecordBatch
	for {
		t0 := time.Now()
		ok := sc.ScanBatchKeep(&b, forensics.RelevantRecord)
		t1 := time.Now()
		p.scan += t1.Sub(t0)
		if !ok {
			break
		}
		p.kept += len(b.Records)
		det.PushKept(b.Frames, b.Records)
		p.findings += len(det.Drain())
		p.reduce += time.Since(t1)
		if stopAt > 0 && sc.Frame() >= stopAt {
			break
		}
	}
	p.scanned = sc.Frame()
	return p, sc.Err()
}

func traceReplay(r *run, dur time.Duration) error {
	synth, err := timed(probeReps, func() error {
		_, err := synthesize(replayRecords, r.seed, 0)
		return err
	})
	if err != nil {
		return err
	}
	r.sample("snoop.synth_s", synth, "s")

	c, d, err := setupIngest(r, replayRecords, 0)
	if err != nil {
		return err
	}
	var scanNS, reduceNS []float64
	var p scanProbe
	for i := 0; i < probeReps; i++ {
		if p, err = probeScan(snoop.NewBatchScannerBytes(c.data), forensics.NewDetector(), 0); err != nil {
			d.stop()
			return err
		}
		scanNS = append(scanNS, float64(p.scan)/float64(p.scanned))
		reduceNS = append(reduceNS, float64(p.reduce)/float64(p.kept))
		r.op(countMismatch("scan-and-reduce findings", p.findings, len(c.want)))
	}
	r.sample("snoop.scan_ns_per_rec", scanNS, "ns")
	r.sample("forensics.reduce_ns_per_kept", reduceNS, "ns")
	r.set("snoop.kept_ratio", float64(p.kept)/float64(p.scanned), "ratio")
	r.notef("snoop.kept_ratio: %d kept of %d scanned", p.kept, p.scanned)
	r.set("forensics.findings", float64(len(c.want)), "count")

	analyze, err := timed(probeReps, func() error {
		_, err := forensics.AnalyzeBytes(c.data)
		return err
	})
	if err != nil {
		d.stop()
		return err
	}
	analyzeNS := median(analyze) * 1e9 / float64(c.records)
	r.set("forensics.analyze_ns_per_rec", analyzeNS, "ns")

	// Half the slice untraced, half with a span around each client call.
	plain, err := replay(r, d, c, dur/2, false)
	if err != nil {
		d.stop()
		return err
	}
	traced, err := replay(r, d, c, dur/2, true)
	if err != nil {
		d.stop()
		return err
	}
	closeIngest(r, d, c, plain.streams+traced.streams)
	r.sample("sentinel.dial_ms", traced.dialMS, "ms")
	r.sample("sentinel.drain_ms", traced.drainMS, "ms")
	r.sample("sentinel.send_ns_per_rec", traced.sendNS, "ns")

	untraced := median(plain.cpuNS)
	r.set("sentinel.live_overhead_ns_per_rec", untraced-analyzeNS, "ns")
	scan := median(scanNS)
	reduce := median(reduceNS) * float64(p.kept) / float64(p.scanned)
	send := median(traced.sendNS)
	drain := median(traced.drainMS) * 1e6 / float64(c.records)
	sum := scan + reduce + send + drain
	r.set("ledger.replay_untraced_ns_per_rec", untraced, "ns")
	r.set("ledger.replay_layers_ns_per_rec", sum, "ns")
	r.set("ledger.replay_residual_ns_per_rec", untraced-sum, "ns")
	r.set("ledger.trace_overhead_ns_per_rec", median(traced.cpuNS)-untraced, "ns")
	r.notef("replay ledger, ns/rec: scan %.2f + reduce %.2f + send %.2f + drain %.2f = %.2f; untraced CPU %.2f; residual %.2f; tracing overhead %.2f",
		scan, reduce, send, drain, sum, untraced, untraced-sum, median(traced.cpuNS)-untraced)
	return nil
}

func traceLive(r *run, dur time.Duration) error {
	c, d, err := setupIngest(r, liveRecords, liveSessionEvery)
	if err != nil {
		return err
	}
	st, err := live(r, d, c, dur)
	if err != nil {
		d.stop()
		return err
	}
	d.shutdown() // closeIngest checks its result
	var frames []tsdb.Frame
	qerr := d.store.Query(sentinel.SeriesFindings, 0, time.Now().Add(time.Hour).UnixNano(), tsdb.KeyAny, func(f tsdb.Frame) error {
		f.Data = append([]byte(nil), f.Data...)
		frames = append(frames, f)
		return nil
	})
	closeIngest(r, d, c, st.streams)
	if qerr != nil {
		return qerr
	}

	recs := float64(st.records)
	for _, stage := range []string{"scan", "push", "drain", "emit"} {
		s := st.snap.Stages[stage]
		r.set("sentinel.stage_"+stage+"_ns_per_rec", s.MeanUS*1e3*float64(s.Count)/recs, "ns")
	}
	r.set("sentinel.events", float64(st.snap.EventsEmitted), "count")
	r.set("sentinel.events_dropped", float64(st.snap.EventsDropped), "count")
	r.set("sentinel.persist_dropped", float64(st.snap.Persist.Dropped), "count")
	r.set("sentinel.checkpoints", float64(st.snap.Sessions.Checkpoints), "count")
	r.set("sentinel.detect_p99_ms", quantile(st.latMS, 0.99), "ms")
	r.notef("sentinel.detect_p99_ms: over %d findings", len(st.latMS))
	r.set("sentinel.gen_late_max_ms", ms(st.lateMax), "ms")

	if err := traceDetectorState(r, c); err != nil {
		return err
	}
	queryMS, err := traceStore(r, frames)
	if err != nil {
		return err
	}
	r.set("sentinel.query_encode_ms", median(st.queryMS)-queryMS, "ms")
	r.notef("sentinel.query_encode_ms: /query median %.3f ms over %d polls minus tsdb.query_ms", median(st.queryMS), len(st.queryMS))
	return nil
}

// traceDetectorState times the checkpoint codec on a detector halfway
// through the live capture, then checks that a restored detector
// finishes the capture with the batch reference's findings.
func traceDetectorState(r *run, c *capture) error {
	sc := snoop.NewBatchScannerBytes(c.data)
	det := forensics.NewDetector()
	p, err := probeScan(sc, det, c.records/2)
	if err != nil {
		return err
	}
	var img []byte
	snapUS, err := timed(20, func() error {
		img, err = det.SnapshotLiveState()
		return err
	})
	if err != nil {
		return err
	}
	var restored *forensics.Detector
	restoreUS, err := timed(20, func() error {
		restored = forensics.NewDetector()
		return restored.RestoreState(img)
	})
	if err != nil {
		return err
	}
	rest, err := probeScan(sc, restored, 0)
	if err != nil {
		return err
	}
	r.op(countMismatch("findings across a checkpoint restore", p.findings+rest.findings, len(c.want)))
	r.set("forensics.snapshot_us", median(snapUS)*1e6, "us")
	r.set("forensics.snapshot_bytes", float64(len(img)), "bytes")
	r.set("forensics.restore_us", median(restoreUS)*1e6, "us")
	r.notef("forensics.snapshot_us/restore_us: detector at frame %d of the live capture", p.scanned)
	return nil
}

var errRowCap = errors.New("row cap")

// traceStore re-appends the live run's persisted findings into a fresh
// store and times its append, fsync and window-query paths; the query
// stops at the dashboard poll's row limit, so tsdb.query_ms is the store
// work one poll causes. It returns tsdb.query_ms.
func traceStore(r *run, frames []tsdb.Frame) (float64, error) {
	if len(frames) == 0 {
		return 0, fmt.Errorf("the live run persisted no findings")
	}
	dir := r.path("tsdb-probe")
	defer os.RemoveAll(dir)
	store, err := tsdb.Open(tsdb.Options{Dir: dir})
	if err != nil {
		return 0, err
	}
	defer store.Close()
	t := time.Now()
	for _, f := range frames {
		if err := store.Append(sentinel.SeriesFindings, f.TS, f.Key, f.Data); err != nil {
			return 0, err
		}
	}
	r.set("tsdb.append_ns_per_frame", float64(time.Since(t))/float64(len(frames)), "ns")

	ckpt := make([]byte, 4096)
	syncs, err := timed(20, func() error {
		if err := store.Append(sentinel.SeriesCkpt, frames[0].TS, frames[0].Key, ckpt); err != nil {
			return err
		}
		return store.SyncSeries(sentinel.SeriesCkpt)
	})
	if err != nil {
		return 0, err
	}
	r.set("tsdb.sync_series_ms", median(syncs)*1e3, "ms")

	until := frames[len(frames)/2].TS
	rows := 0
	queries, err := timed(probeReps, func() error {
		rows = 0
		err := store.Query(sentinel.SeriesFindings, until-int64(time.Second), until, tsdb.KeyAny, func(tsdb.Frame) error {
			if rows >= liveQueryRows {
				return errRowCap
			}
			rows++
			return nil
		})
		if errors.Is(err, errRowCap) {
			err = nil
		}
		return err
	})
	if err != nil {
		return 0, err
	}
	r.set("tsdb.query_ms", median(queries)*1e3, "ms")
	r.set("tsdb.query_frames", float64(rows), "count")
	return median(queries) * 1e3, nil
}

func traceCampaign(r *run, dur time.Duration) error {
	t := time.Now()
	t2, err := eval.RunTableIIWorkers(r.seed, campaignTrials, 1)
	if err != nil {
		return err
	}
	t1 := time.Now()
	mx, err := eval.RunAttackMatrixWorkers(r.seed, campaignTrials, 1)
	if err != nil {
		return err
	}
	r.set("eval.table2_ms", ms(t1.Sub(t)), "ms")
	r.set("eval.matrix_ms", ms(time.Since(t1)), "ms")
	ref := campaignRows{table2: t2, matrix: mx}
	for _, err := range paperInvariants(ref) {
		r.op(err)
	}

	st, err := campaignRun(r, ref, dur)
	if err != nil {
		return err
	}
	busy := st.prog.Latency.MeanUS * 1e3 * float64(st.prog.Latency.Count)
	r.sample("campaign.trial_mean_ms", st.trialMS, "ms")
	// Interpolated inside the histogram's power-of-two bucket: it moves
	// when trials cross a bucket edge, not with every change in speed.
	r.set("campaign.trial_p90_ms", st.prog.Latency.P90US/1e3, "ms")
	r.set("campaign.worker_idle_ratio", 1-busy/(float64(st.wall)*campaignWorkers), "ratio")
	r.set("campaign.retries", float64(st.prog.Retries), "count")

	var testbeds []float64
	var steps uint64
	var simNS float64
	worlds := 0
	for _, sc := range scenarios() {
		p, err := probeScenario(sc, r.seed, scenarioTrials)
		if err != nil {
			return fmt.Errorf("scenario %s: %w", sc.name, err)
		}
		testbeds = append(testbeds, p.testbedUS...)
		r.set("core.run_us."+sc.name, median(p.runUS), "us")
		steps += p.steps
		worlds += scenarioTrials
		for i := range p.runUS {
			simNS += (p.testbedUS[i] + p.runUS[i]) * 1e3
		}
	}
	r.set("core.testbed_us", median(testbeds), "us")
	r.set("sim.steps_per_trial", float64(steps)/float64(worlds), "count")
	r.set("sim.ns_per_step", simNS/float64(steps), "ns")
	return nil
}

// countMismatch is the failure when got differs from want.
func countMismatch(what string, got, want int) error {
	if got == want {
		return nil
	}
	return fmt.Errorf("%s: %d, want %d", what, got, want)
}
