package main

import (
	"fmt"
	"runtime"
	"strconv"
	"time"

	"repro/internal/sentinel"
	"repro/internal/tsdb"
)

// replayRecords is the size of the replay workload's capture: a
// default-shape synthetic log of one million records (about 52 MB).
const replayRecords = 1_000_000

// setupReps is how many times a run builds its set-up; setup_s is the
// median, so one slow build does not move it.
const setupReps = 5

// setupIngest builds an ingest workload's set-up setupReps times: the
// capture synthesized into a presized buffer, its batch reference, a
// fresh store and a started server. It keeps the last one.
func setupIngest(r *run, records int, sessionEvery int) (*capture, *daemon, error) {
	var (
		c    *capture
		d    *daemon
		err  error
		took []float64
	)
	for i := 0; i < setupReps; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, nil, err
			}
			c, d = nil, nil
		}
		runtime.GC()
		t := time.Now()
		if c, err = newCapture(records, r.seed, sessionEvery); err != nil {
			return nil, nil, err
		}
		if d, err = startDaemon(r.path("daemon" + strconv.Itoa(i))); err != nil {
			return nil, nil, err
		}
		took = append(took, time.Since(t).Seconds())
	}
	r.sample("setup_s", took, "s")
	runtime.GC()
	return c, d, nil
}

// replayStats holds one sample per replayed stream (and per query).
type replayStats struct {
	rate, cpuNS, latMS, queryMS []float64
	// Traced only: dial, time inside WriteSessionBytes per record, and
	// fin to the server's stream-end hook.
	dialMS, sendNS, drainMS []float64
	streams                 int
}

func runReplay(r *run) error {
	c, d, err := setupIngest(r, replayRecords, 0)
	if err != nil {
		return err
	}
	st, err := replay(r, d, c, r.seconds, false)
	if err != nil {
		d.stop()
		return err
	}
	closeIngest(r, d, c, st.streams)
	r.sample("throughput_per_s", st.rate, "1/s")
	r.sample("cpu_ns_per_op", st.cpuNS, "ns")
	r.sample("latency_p50_ms", st.latMS, "ms")
	r.sample("query_p50_ms", st.queryMS, "ms")
	r.set("peak_rss_mb", peakRSSMB(), "MB")
	return nil
}

// replay streams the capture back to back, one session at a time, for
// dur (at least one stream). After each stream the analyst's check
// reads the stream's persisted end back through /query.
func replay(r *run, d *daemon, c *capture, dur time.Duration, traced bool) (replayStats, error) {
	var st replayStats
	deadline := time.Now().Add(dur)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		cpu0 := cpuTime()
		t0 := time.Now()
		s, err := d.dial(fmt.Sprintf("replay-%d-%d", r.seed, i))
		if err != nil {
			return st, err
		}
		t1 := time.Now()
		t := d.sink.track(s.hello.Stream, &tracker{c: c})
		if _, err := sentinel.WriteSessionBytes(s.conn, c.data); err != nil {
			return st, fmt.Errorf("streaming capture: %w", err)
		}
		t2 := time.Now()
		sum, tEnd, err := d.finish(s)
		if err != nil {
			return st, err
		}
		if err := t.wait(); err != nil {
			return st, err
		}
		cpu := cpuTime() - cpu0
		problem := checkStream(sum, c)
		if problem == nil {
			problem = d.sink.result(sum.ID)
		}
		r.op(problem)
		st.streams++
		lat := tEnd.Sub(t0)
		st.rate = append(st.rate, float64(c.records)/lat.Seconds())
		st.latMS = append(st.latMS, ms(lat))
		st.cpuNS = append(st.cpuNS, float64(cpu)/float64(c.records))
		if traced {
			st.dialMS = append(st.dialMS, ms(t1.Sub(t0)))
			st.sendNS = append(st.sendNS, float64(t2.Sub(t1))/float64(c.records))
			st.drainMS = append(st.drainMS, ms(tEnd.Sub(t2)))
		}
		rt, err := d.query("series=ends&stream=" + strconv.FormatUint(sum.ID, 10))
		r.op(err)
		st.queryMS = append(st.queryMS, ms(rt))
	}
	return st, nil
}

// closeIngest shuts the daemon down (which drains its persist queues)
// and checks that nothing was dropped: every stream's end and every
// finding reached the store, and no JSONL event was lost. Each check is
// one operation; stop reports the shutdown's error too.
func closeIngest(r *run, d *daemon, c *capture, streams int) {
	d.shutdown()
	ends := countFrames(d.store, sentinel.SeriesEnds)
	findings := countFrames(d.store, sentinel.SeriesFindings)
	snap := d.srv.Snapshot()
	r.op(d.stop())
	r.op(countMismatch("dropped JSONL events", int(snap.EventsDropped), 0))
	r.op(countMismatch("dropped persisted frames", int(snap.Persist.Dropped), 0))
	r.op(countMismatch("stream ends in the store", ends, streams))
	r.op(countMismatch("findings in the store", findings, streams*len(c.want)))
	r.op(countMismatch("event lines for unknown streams", d.sink.untracked, 0))
}

func countFrames(s *tsdb.Store, series string) int {
	n := 0
	_ = s.Query(series, 0, time.Now().Add(time.Hour).UnixNano(), tsdb.KeyAny, func(tsdb.Frame) error {
		n++
		return nil
	})
	return n
}
