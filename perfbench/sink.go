package main

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"time"
)

// sink is the sentinel server's JSONL Output. It checks every finding
// line against the batch reference of its stream's capture as the line
// arrives, timestamps it for the live workload's detection latency, and
// signals each stream's end line. It never decodes whole lines, so the
// consumer adds little to the CPU the benchmark measures.
type sink struct {
	mu        sync.Mutex
	streams   map[uint64]*tracker
	untracked int
}

// tracker follows one stream's lines.
type tracker struct {
	c     *capture
	next  int    // index of the next expected finding
	bad   int    // findings that did not match the reference
	first string // the first mismatching line
	ended chan struct{}

	// Open-loop schedule (live only): chunk k of per records was due at
	// start + k*every; zero per disables latency capture.
	start time.Time
	per   int
	every time.Duration
	lat   []float64 // detection latency per finding, ms
}

var (
	findingPrefix = []byte(`{"type":"finding","stream":`)
	endPrefix     = []byte(`{"type":"stream-end","stream":`)
	frameKey      = []byte(`"frame":`)
)

func newSink() *sink { return &sink{streams: map[uint64]*tracker{}} }

// track registers a stream before any of its lines can arrive.
func (s *sink) track(id uint64, t *tracker) *tracker {
	t.ended = make(chan struct{})
	s.mu.Lock()
	s.streams[id] = t
	s.mu.Unlock()
	return t
}

// wait blocks until the stream's end line has reached the sink.
func (t *tracker) wait() error {
	select {
	case <-t.ended:
		return nil
	case <-time.After(30 * time.Second):
		return errors.New("no stream-end line within 30 s of the stream's end")
	}
}

// result reports a finished stream's check: nil when every finding
// matched the reference in order and none is missing.
func (s *sink) result(id uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.streams[id]
	delete(s.streams, id)
	switch {
	case t.bad > 0:
		return fmt.Errorf("stream %d: %d findings differ from the batch reference, first %q", id, t.bad, t.first)
	case t.next != len(t.c.want):
		return fmt.Errorf("stream %d: %d findings, batch reference has %d", id, t.next, len(t.c.want))
	}
	return nil
}

func (s *sink) Write(p []byte) (int, error) {
	now := time.Now()
	n := len(p)
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(p) > 0 {
		i := bytes.IndexByte(p, '\n')
		if i < 0 {
			i = len(p) // the shard writers flush whole lines
		}
		s.line(p[:i], now)
		p = p[min(i+1, len(p)):]
	}
	return n, nil
}

func (s *sink) line(l []byte, now time.Time) {
	var end bool
	switch {
	case bytes.HasPrefix(l, findingPrefix):
		l = l[len(findingPrefix):]
	case bytes.HasPrefix(l, endPrefix):
		l, end = l[len(endPrefix):], true
	default:
		return
	}
	var id uint64
	for len(l) > 0 && l[0] >= '0' && l[0] <= '9' {
		id = id*10 + uint64(l[0]-'0')
		l = l[1:]
	}
	t := s.streams[id]
	if t == nil {
		s.untracked++
		return
	}
	if end {
		close(t.ended)
		return
	}
	i := t.next
	t.next++
	at := bytes.Index(l, frameKey)
	if i >= len(t.c.want) || at < 0 || !bytes.HasPrefix(l[at:], t.c.want[i]) {
		if t.bad == 0 {
			t.first = string(l)
		}
		t.bad++
		return
	}
	if t.per > 0 {
		due := t.start.Add(time.Duration((t.c.frames[i]-1)/t.per) * t.every)
		t.lat = append(t.lat, ms(now.Sub(due)))
	}
}
