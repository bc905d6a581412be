package main

import (
	"fmt"
	"net/url"
	"strconv"
	"sync"
	"time"

	"repro/internal/sentinel"
)

const (
	// liveRecords is the size of each live stream's capture: one million
	// records of a finding-dense log (a new ACL session every 20 records,
	// so about 5% of records complete a finding).
	liveRecords      = 1_000_000
	liveSessionEvery = 20
	// liveRate is the offered load in records per second, delivered as
	// one chunk of liveRate*liveEvery records every liveEvery: roughly
	// 40% of what the dense path sustains closed loop on two CPUs.
	liveRate  = 1_000_000
	liveEvery = time.Millisecond
	// livePoll is the dashboard's /query period and liveQueryRows the
	// rows it asks for. /query returns frames in append order and stops
	// at the limit, so each poll gets the first 1000 rows of the last
	// second, always truncated. Without a limit every poll encodes the
	// daemon's 10000-row default cap, which dominated the workload's CPU
	// and did not repeat within a fifth.
	livePoll      = 200 * time.Millisecond
	liveQueryRows = 1000
)

// liveStats is one open-loop run.
type liveStats struct {
	records int
	streams int
	wall    time.Duration // first chunk's due time to the last stream's end
	cpuNS   []float64     // CPU per record, per stream
	latMS   []float64     // detection latency per finding
	queryMS []float64     // /query round trip per poll
	lateMax time.Duration
	snap    sentinel.MetricsSnapshot // server counters at the end
}

func runLive(r *run) error {
	c, d, err := setupIngest(r, liveRecords, liveSessionEvery)
	if err != nil {
		return err
	}
	st, err := live(r, d, c, r.seconds)
	if err != nil {
		d.stop()
		return err
	}
	closeIngest(r, d, c, st.streams)
	r.set("throughput_per_s", float64(st.records)/st.wall.Seconds(), "1/s")
	r.sample("cpu_ns_per_op", st.cpuNS, "ns")
	r.sample("latency_p50_ms", st.latMS, "ms")
	r.sample("query_p50_ms", st.queryMS, "ms")
	r.set("peak_rss_mb", peakRSSMB(), "MB")
	r.notef("offered %d rec/s over %d streams, generator late by at most %.3f ms", liveRate, st.streams, ms(st.lateMax))
	return nil
}

// live feeds the capture to one session at a time on a fixed schedule
// for about dur (a whole number of streams, at least one), while a
// second connection polls /query for the last second of findings.
func live(r *run, d *daemon, c *capture, dur time.Duration) (liveStats, error) {
	var st liveStats
	ends, err := recordEnds(c.data)
	if err != nil {
		return st, err
	}
	per := int(liveRate * liveEvery / time.Second)
	chunks := (len(ends) + per - 1) / per
	streams := int(dur.Seconds()*liveRate/float64(len(ends)) + 0.5)
	if streams < 1 {
		streams = 1
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	stopPoller := sync.OnceFunc(func() {
		close(stop)
		wg.Wait()
	})
	defer stopPoller()
	var pollErrs []error
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(livePoll)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			since := time.Now().Add(-time.Second).UTC().Format(time.RFC3339Nano)
			rt, err := d.query("series=findings&limit=" + strconv.Itoa(liveQueryRows) + "&since=" + url.QueryEscape(since))
			st.queryMS = append(st.queryMS, ms(rt))
			pollErrs = append(pollErrs, err)
		}
	}()

	start := time.Now().Add(liveEvery)
	k := 0 // chunks scheduled so far, across streams
	for s := 0; s < streams; s++ {
		cpuS := cpuTime()
		sess, err := d.dial(fmt.Sprintf("live-%d-%d", r.seed, s))
		if err != nil {
			return st, err
		}
		t := d.sink.track(sess.hello.Stream, &tracker{
			c: c, start: start.Add(time.Duration(k) * liveEvery), per: per, every: liveEvery,
		})
		lo := 0
		for j := 0; j < chunks; j++ {
			due := start.Add(time.Duration(k+j) * liveEvery)
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			} else if -wait > st.lateMax {
				st.lateMax = -wait
			}
			hi := ends[min((j+1)*per, len(ends))-1]
			if _, err := sentinel.WriteSessionBytes(sess.conn, c.data[lo:hi]); err != nil {
				return st, fmt.Errorf("streaming chunk %d: %w", j, err)
			}
			lo = hi
		}
		k += chunks
		sum, _, err := d.finish(sess)
		if err != nil {
			return st, err
		}
		if err := t.wait(); err != nil {
			return st, err
		}
		problem := checkStream(sum, c)
		if problem == nil {
			problem = d.sink.result(sum.ID)
		}
		r.op(problem)
		st.cpuNS = append(st.cpuNS, float64(cpuTime()-cpuS)/float64(sum.Records))
		st.latMS = append(st.latMS, t.lat...)
		st.records += sum.Records
		st.streams++
	}
	st.wall = time.Since(start)
	stopPoller()
	st.snap = d.srv.Snapshot()
	for _, err := range pollErrs {
		r.op(err)
	}
	return st, nil
}
