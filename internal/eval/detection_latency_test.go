package eval

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/forensics"
	"repro/internal/hci"
	"repro/internal/snoop"
)

// TestFirstFindingMatchesAnalyze pins the detection-scan helper the
// attack matrix, the degraded sweep and the latency sweep share: on the
// victim captures of every ruled library attack and of page blocking,
// its (first, frames) must equal the first finding of that kind in
// Analyze(ReadAll(data)) and the capture's record count. One capture
// ends on records the prefilter rejects, so a helper that divided by
// the detector's last relevant frame would fail here.
func TestFirstFindingMatchesAnalyze(t *testing.T) {
	type capture struct {
		name, kind string
		data       []byte
		fires      bool
	}
	var caps []capture
	for i, spec := range attackSpecs() {
		if spec.detectorKind == "" {
			continue
		}
		tb, err := core.NewTestbed(int64(100+i), spec.options(faults.Plan{}))
		if err != nil {
			t.Fatal(err)
		}
		ok, victim := spec.run(tb)
		if !ok || victim.Snoop == nil {
			t.Fatalf("%s: attack failed on a clean channel", spec.name)
		}
		data, err := victim.Snoop.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		caps = append(caps, capture{spec.name, spec.detectorKind, data, true})
	}
	tb, err := core.NewTestbed(7, core.TestbedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	core.RunPageBlocking(tb.Sched, core.PageBlockingConfig{
		Attacker: tb.A, Client: tb.C, Victim: tb.M, VictimUser: tb.MUser, UsePLOC: true,
	})
	data, err := tb.M.Snoop.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	caps = append(caps, capture{"page-blocking", forensics.FindingPageBlocking, data, true})
	// A kind the capture never raises: no detection, frames still counted.
	caps = append(caps, capture{"page-blocking/absent", forensics.FindingStalledAuthTimeout, data, false})
	// The simulator's dumps end on a relevant record, where the scanner's
	// and the detector's frame counts agree; trailing traffic the
	// prefilter rejects pulls them apart.
	var tail bytes.Buffer
	w := snoop.NewWriter(&tail)
	for i := 0; i < 3; i++ {
		if err := w.WriteRecord(snoop.Record{Flags: snoop.FlagCommandEvent, Timestamp: snoop.CaptureBase,
			Data: hci.EncodeCommand(&hci.Reset{}).Wire()}); err != nil {
			t.Fatal(err)
		}
	}
	padded := append(append([]byte(nil), data...), tail.Bytes()[16:]...)
	caps = append(caps, capture{"page-blocking/rejected-tail", forensics.FindingPageBlocking, padded, true})

	for _, c := range caps {
		recs, err := snoop.ReadAll(c.data)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		wantFirst := 0
		for _, f := range forensics.Analyze(recs).Findings {
			if f.Kind == c.kind {
				wantFirst = f.Frame
				break
			}
		}
		first, frames, err := firstFinding(c.data, c.kind)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if first != wantFirst || frames != len(recs) {
			t.Fatalf("%s: firstFinding = (%d, %d), Analyze(ReadAll) = (%d, %d)",
				c.name, first, frames, wantFirst, len(recs))
		}
		if c.fires != (first > 0) {
			t.Fatalf("%s: %s fired at frame %d, want fired=%v", c.name, c.kind, first, c.fires)
		}
	}

	// A damaged capture surfaces the scan error.
	if _, _, err := firstFinding(data[:len(data)-3], forensics.FindingPageBlocking); err == nil {
		t.Fatal("truncated capture scanned without error")
	}
}
