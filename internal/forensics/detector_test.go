package forensics

import (
	"bytes"
	"reflect"
	"testing"
	"testing/iotest"

	"repro/internal/snoop"
)

// TestDetectorEventsMatchBatchFindings pins live detection to batch
// analysis: pushing records one at a time and draining after every push
// must yield the same findings, in the same order, as Analyze over the
// same slice — and the final report must be deeply identical.
func TestDetectorEventsMatchBatchFindings(t *testing.T) {
	for name, data := range streamTestCaptures(t) {
		recs, err := snoop.ReadAll(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := Analyze(recs)

		d := NewDetector()
		var events []Event
		for i, rec := range recs {
			d.Push(rec)
			for _, ev := range d.Drain() {
				// A finding can only ever be emitted by the record just
				// pushed — that is what makes the detector "live".
				if ev.Frame != i+1 {
					t.Fatalf("%s: event %d drained after frame %d but stamped frame %d",
						name, ev.Seq, i+1, ev.Frame)
				}
				events = append(events, ev)
			}
		}
		got := d.Finish()

		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: incremental report differs from Analyze\nlive:  %s\nbatch: %s",
				name, got.Render(), want.Render())
		}
		if len(events) != len(want.Findings) {
			t.Fatalf("%s: %d events, %d batch findings", name, len(events), len(want.Findings))
		}
		for i, ev := range events {
			if ev.Seq != uint64(i+1) {
				t.Fatalf("%s: event %d has seq %d", name, i, ev.Seq)
			}
			if !reflect.DeepEqual(ev.Finding, want.Findings[i]) {
				t.Fatalf("%s: event %d finding differs:\nlive:  %+v\nbatch: %+v",
					name, i, ev.Finding, want.Findings[i])
			}
			if ev.Frame != ev.Finding.Frame {
				t.Fatalf("%s: event frame %d != finding frame %d", name, ev.Frame, ev.Finding.Frame)
			}
		}
		if d.Frames() != len(recs) {
			t.Fatalf("%s: Frames() = %d, pushed %d", name, d.Frames(), len(recs))
		}
		if d.Findings() != uint64(len(events)) {
			t.Fatalf("%s: Findings() = %d, drained %d", name, d.Findings(), len(events))
		}
	}
}

// TestPushBatchMatchesPush pins the prefiltered batch entry to the
// record-at-a-time path: PushKept over ScanBatchKeep(RelevantRecord)
// batches must drain the same events and build a deeply identical
// report as Push over every record, for every batch split the scanner
// can produce — a 4 KiB block scanner with every block boundary
// possible down to one record per batch (one-byte trickle), and the
// zero-copy bytes mode.
func TestPushBatchMatchesPush(t *testing.T) {
	for name, data := range streamTestCaptures(t) {
		recs, err := snoop.ReadAll(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ref := NewDetector()
		var wantEvents []Event
		for _, rec := range recs {
			ref.Push(rec)
			wantEvents = append(wantEvents, ref.Drain()...)
		}
		want := ref.Finish()

		for mode, sc := range map[string]*snoop.BatchScanner{
			"block":   snoop.NewBatchScannerSize(bytes.NewReader(data), 4<<10),
			"trickle": snoop.NewBatchScanner(iotest.OneByteReader(bytes.NewReader(data))),
			"bytes":   snoop.NewBatchScannerBytes(data),
		} {
			d := NewDetector()
			var events []Event
			var b snoop.RecordBatch
			for sc.ScanBatchKeep(&b, RelevantRecord) {
				d.PushKept(b.Frames, b.Records)
				events = append(events, d.Drain()...)
			}
			if err := sc.Err(); err != nil {
				t.Fatalf("%s %s: %v", name, mode, err)
			}
			d.PushKept(nil, nil) // empty batches are no-ops
			if sc.Frame() != len(recs) {
				t.Fatalf("%s %s: scanner frame %d, want %d", name, mode, sc.Frame(), len(recs))
			}
			if !reflect.DeepEqual(d.Finish(), want) {
				t.Fatalf("%s %s: batch report differs from Push", name, mode)
			}
			if !reflect.DeepEqual(events, wantEvents) {
				t.Fatalf("%s %s: %d batch events, %d push events (or contents differ)",
					name, mode, len(events), len(wantEvents))
			}
		}

		// Re-split the kept records at awkward sizes, single records and
		// one batch for everything included.
		var frames []int
		var kept []snoop.Record
		sc := snoop.NewBatchScannerBytes(data)
		var b snoop.RecordBatch
		for sc.ScanBatchKeep(&b, RelevantRecord) {
			frames = append(frames, b.Frames...)
			kept = append(kept, b.Records...)
		}
		for _, chunk := range []int{1, 3, 7, 64, len(kept) + 1} {
			d := NewDetector()
			var events []Event
			for i := 0; i < len(kept); i += chunk {
				end := min(i+chunk, len(kept))
				d.PushKept(frames[i:end], kept[i:end])
				events = append(events, d.Drain()...)
			}
			if !reflect.DeepEqual(d.Finish(), want) || !reflect.DeepEqual(events, wantEvents) {
				t.Fatalf("%s chunk=%d: PushKept diverges from Push", name, chunk)
			}
		}
	}
}

// TestDetectorFiresBeforeEOF is the point of the subsystem: on a long
// capture with early attack flows, the first finding must surface long
// before the last record arrives — batch-at-EOF analysis cannot do this.
func TestDetectorFiresBeforeEOF(t *testing.T) {
	data, stats := synthCapture(t, 20_000, 9)
	if stats.BlockedSessions == 0 {
		t.Fatal("fixture lost its page-blocking sessions")
	}
	recs, err := snoop.ReadAll(data)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDetector()
	first := 0
	for _, rec := range recs {
		d.Push(rec)
		if evs := d.Drain(); first == 0 && len(evs) > 0 {
			first = evs[0].Frame
		}
	}
	if first == 0 {
		t.Fatal("no events emitted")
	}
	if first > len(recs)/10 {
		t.Fatalf("first finding at frame %d of %d — not incremental", first, len(recs))
	}
}

// TestFindingFramesMonotonic checks the frame stamps advance with the
// stream (sequence numbers are pinned elsewhere; frames may repeat when
// one record completes several findings).
func TestFindingFramesMonotonic(t *testing.T) {
	data, _ := synthCapture(t, 5_000, 4)
	recs, err := snoop.ReadAll(data)
	if err != nil {
		t.Fatal(err)
	}
	rep := Analyze(recs)
	if len(rep.Findings) == 0 {
		t.Fatal("no findings")
	}
	last := 0
	for _, f := range rep.Findings {
		if f.Frame <= 0 || f.Frame > len(recs) {
			t.Fatalf("finding frame %d out of range 1..%d", f.Frame, len(recs))
		}
		if f.Frame < last {
			t.Fatalf("finding frames regress: %d after %d", f.Frame, last)
		}
		last = f.Frame
	}
}

func synthCapture(t testing.TB, records int, seed int64) ([]byte, snoop.SynthStats) {
	t.Helper()
	var buf bytes.Buffer
	stats, err := snoop.Synthesize(&buf, snoop.SynthConfig{Records: records, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), stats
}
