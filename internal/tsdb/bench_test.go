package tsdb

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

var errWindowFull = errors.New("window full")

// BenchmarkQueryFindingsWindow is one dashboard poll against a dense
// findings series: 84k ~430-byte frames appended by four interleaving
// writers at 50k frames/s (about 36 MiB over nine 4 MiB segments; the window starts 1.7 MB
// into the fourth),
// queried for the last second and stopped at 1000 rows — the poll the
// live dashboard makes, whose window starts in the middle of a segment.
func BenchmarkQueryFindingsWindow(b *testing.B) {
	s, err := Open(Options{Dir: b.TempDir(), CompactEvery: -1, SyncEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	const (
		frames  = 84_000
		writers = 4
		step    = int64(20 * time.Microsecond)
	)
	base := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC).UnixNano()
	var last int64
	for i := 0; i < frames; i++ {
		w := i % writers
		// Each writer stamps before it appends, so neighbours in the
		// file are a few steps out of order.
		ts := base + int64(i)*step - int64(w)*3*step
		data := fmt.Appendf(nil, `{"type":"finding","stream":%d,"seq":%d,"frame":%d,"kind":"page-blocking","peer":"AA:BB:CC:DD:EE:%02X","detail":"page timeout from legitimate central while a paired attacker holds the connection; %0150d","capture_ts":"2026-08-01T12:00:00.000000000Z"}`,
			w+1, i, i*20, i%256, i)
		if err := s.Append("findings", ts, uint64(w+1), data); err != nil {
			b.Fatal(err)
		}
		last = max(last, ts)
	}
	since, until := last-int64(time.Second), last
	rows := 0
	poll := func() error {
		rows = 0
		err := s.Query("findings", since, until, KeyAny, func(Frame) error {
			if rows == 1000 {
				return errWindowFull
			}
			rows++
			return nil
		})
		if errors.Is(err, errWindowFull) {
			return nil
		}
		return err
	}
	if err := poll(); err != nil || rows != 1000 {
		b.Fatalf("poll: %d rows, %v", rows, err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := poll(); err != nil {
			b.Fatal(err)
		}
	}
}
