package tsdb

import (
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"
)

// scanAll is the reference data: every intact frame of every segment
// file of the series, in sequence order, each file scanned whole from
// its header — no segment pruning, no block index.
func scanAll(t *testing.T, dir, series string) []Frame {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, series, "*"+segSuffix))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths) // zero-padded sequence numbers sort in order
	var out []Frame
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = scanSegment(f, func(fr Frame) error {
			out = append(out, Frame{TS: fr.TS, Key: fr.Key, Data: append([]byte(nil), fr.Data...)})
			return nil
		})
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// bruteForce is the reference Query: scanAll's frames filtered one by
// one.
func bruteForce(all []Frame, since, until int64, key uint64) []Frame {
	var out []Frame
	for _, fr := range all {
		if fr.TS >= since && fr.TS <= until && (key == KeyAny || fr.Key == key) {
			out = append(out, fr)
		}
	}
	return out
}

// blockIndex snapshots the block index of every segment of a series,
// keyed by segment sequence number.
func blockIndex(s *Store, series string) map[uint64][]block {
	s.mu.Lock()
	sr := s.series[series]
	s.mu.Unlock()
	sr.mu.Lock()
	defer sr.mu.Unlock()
	out := make(map[uint64][]block, len(sr.segs))
	for _, g := range sr.segs {
		out[g.seq] = append([]block(nil), g.blocks...)
	}
	return out
}

// TestQueryIndexMatchesBruteForce is the block index's property test:
// frames from several "shards" with independent, jittered clocks (so
// timestamps interleave and never ascend in file order), late
// stragglers, and frames larger than a block and than the scan buffer,
// spread over several segments. For random [since, until] and key
// windows, Query must return exactly the frames — same order, same
// bytes — that a whole-file scan of every segment returns after
// filtering. It is checked on the live store, after Close+Open
// recovery rebuilt the index, and after a Compact that deleted aged
// segments and downsampled others. The index Append built must also
// equal the one recovery rebuilds from the same bytes.
func TestQueryIndexMatchesBruteForce(t *testing.T) {
	const (
		series = "findings"
		shards = 4
		frames = 6000
		step   = int64(time.Second)
	)
	dir := t.TempDir()
	now := t0
	opts := func(o *Options) {
		o.SegmentBytes = 512 << 10
		o.Now = func() time.Time { return now }
		o.Retention = 2*time.Hour + 30*time.Minute
		o.Downsample = map[string]Downsampler{
			series: {After: 2 * time.Hour, Window: 30 * time.Second, Merge: sumMerge},
		}
	}
	rng := rand.New(rand.NewSource(11))
	s := openTest(t, dir, opts)

	base := t0.Add(-3 * time.Hour).UnixNano()
	clock := make([]int64, shards)
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for i := 0; i < frames; i++ {
		k := rng.Intn(shards)
		// Each shard's clock wanders up to ±10 minutes around the
		// common timeline — several blocks' worth of frames.
		clock[k] = base + int64(i)*step + (rng.Int63n(1200)-600)*step
		ts := clock[k]
		if rng.Intn(100) == 0 {
			ts -= rng.Int63n(int64(i)+1) * step // late straggler
		}
		size := 8 + rng.Intn(400)
		switch r := rng.Intn(1000); {
		case r < 2:
			size = blockBytes + 4096 // spans a whole block
		case r < 3:
			size = 300 << 10 // larger than the scan reader's buffer
		}
		data := make([]byte, size)
		binary.LittleEndian.PutUint64(data, 1) // sumMerge's counter
		rng.Read(data[8:])
		if err := s.Append(series, ts, uint64(1+k), data); err != nil {
			t.Fatalf("Append: %v", err)
		}
		lo, hi = min(lo, ts), max(hi, ts)
	}
	if n := s.Stats()[series].Segments; n < 4 {
		t.Fatalf("only %d segments; the test needs several", n)
	}

	check := func(phase string, s *Store) {
		t.Helper()
		if err := s.Sync(); err != nil { // Query flushes; the reference needs it too
			t.Fatal(err)
		}
		all := scanAll(t, dir, series)
		span := hi - lo
		for i := 0; i < 50; i++ {
			since := lo + rng.Int63n(span+1)
			until := since + rng.Int63n(span/3+1)
			switch rng.Intn(6) {
			case 0:
				since = 0
			case 1:
				until = math.MaxInt64
			case 2:
				until = since // single instant
			}
			key := KeyAny
			if rng.Intn(2) == 0 {
				key = uint64(1 + rng.Intn(shards))
			}
			got := collect(t, s, series, since, until, key)
			want := bruteForce(all, since, until, key)
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: window [%d, %d] key %d: Query returned %d frames, whole-file scan %d",
					phase, since, until, key, len(got), len(want))
			}
		}
	}

	check("live", s)
	built := blockIndex(s, series)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = openTest(t, dir, opts)
	if got := blockIndex(s, series); !reflect.DeepEqual(got, built) {
		t.Fatalf("recovered block index differs from the one Append built:\n got %v\nwant %v", got, built)
	}
	for seq, bs := range built {
		if len(bs) == 0 || bs[0].off != segHeaderSize {
			t.Fatalf("segment %d: index %v does not start at the first frame", seq, bs)
		}
	}
	check("recovered", s)

	stats, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if stats.SegmentsDeleted == 0 || stats.SegmentsDownsampled == 0 {
		t.Fatalf("compaction must both delete and downsample for this test: %+v", stats)
	}
	check("compacted", s)
	compacted := blockIndex(s, series)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = openTest(t, dir, opts)
	if got := blockIndex(s, series); !reflect.DeepEqual(got, compacted) {
		t.Fatalf("index after compaction differs from the recovered one:\n got %v\nwant %v", compacted, got)
	}
	check("compacted+recovered", s)
}

// TestQueryAcrossConcurrentRewrite: compaction rewrites a segment
// after Query snapshotted its block index but before Query opened the
// file. The snapshot's offset describes the old bytes; reading the new
// file from it would land past its end (or mid-frame). Query must
// notice the rewrite and scan the new file whole, returning exactly
// what a whole-file scan of the compacted store returns.
func TestQueryAcrossConcurrentRewrite(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, func(o *Options) {
		o.SegmentBytes = 256 << 10
		o.Downsample = map[string]Downsampler{
			"findings": {After: time.Hour, Window: 10 * time.Second, Merge: sumMerge},
		}
	})
	base := t0.Add(-2 * time.Hour).UnixNano()
	step := int64(100 * time.Millisecond)
	data := make([]byte, 520)
	binary.LittleEndian.PutUint64(data, 1)
	for i := 0; i < 1000; i++ {
		if err := s.Append("findings", base+int64(i)*step, 1, data); err != nil {
			t.Fatal(err)
		}
	}
	since := base + 300*step
	s.mu.Lock()
	sr := s.series["findings"]
	s.mu.Unlock()
	sr.mu.Lock()
	off := sr.segs[0].seek(since)
	sr.mu.Unlock()
	if off <= segHeaderSize {
		t.Fatalf("seek(since) = %d: the window must start past the first block", off)
	}

	compacted := false
	testHookQueryOpen = func() {
		if compacted {
			return
		}
		compacted = true
		if st, err := s.Compact(); err != nil || st.SegmentsDownsampled == 0 {
			t.Errorf("Compact in the race window: %+v, %v", st, err)
		}
	}
	defer func() { testHookQueryOpen = nil }()
	got := collect(t, s, "findings", since, math.MaxInt64, KeyAny)
	if !compacted {
		t.Fatal("the hook never ran")
	}
	want := bruteForce(scanAll(t, dir, "findings"), since, math.MaxInt64, KeyAny)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("query racing a rewrite returned %d frames, the compacted store holds %d", len(got), len(want))
	}
}
