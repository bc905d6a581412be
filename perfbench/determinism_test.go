package main

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/eval"
	"repro/internal/forensics"
	"repro/internal/snoop"
)

const testSeed = 7

// TestInputsDeterministic: one seed gives byte-identical captures for
// both ingest workloads, and the next seed gives different ones.
func TestInputsDeterministic(t *testing.T) {
	for _, shape := range []struct {
		name    string
		records int
		every   int
	}{{"replay", replayRecords, 0}, {"live", liveRecords, liveSessionEvery}} {
		a, err := synthesize(shape.records, testSeed, shape.every)
		if err != nil {
			t.Fatal(err)
		}
		b, err := synthesize(shape.records, testSeed, shape.every)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed %d synthesized two different captures", shape.name, testSeed)
		}
		c, err := synthesize(shape.records, testSeed+1, shape.every)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds %d and %d synthesized the same capture", shape.name, testSeed, testSeed+1)
		}
	}
}

// TestExactCountsRepeat: the counts the traced run reports as exact
// (forensics.findings, the snoop.kept_ratio counts, sim.steps_per_trial)
// and the campaign rows repeat for one seed.
func TestExactCountsRepeat(t *testing.T) {
	c1, err := newCapture(replayRecords, testSeed, 0)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := newCapture(replayRecords, testSeed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c1.want, c2.want) || len(c1.want) == 0 {
		t.Fatalf("findings differ between two references: %d vs %d", len(c1.want), len(c2.want))
	}
	var kept [2][2]int
	for i := range kept {
		p, err := probeScan(snoop.NewBatchScannerBytes(c1.data), forensics.NewDetector(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if p.findings != len(c1.want) {
			t.Errorf("scan probe found %d findings, reference %d", p.findings, len(c1.want))
		}
		kept[i] = [2]int{p.kept, p.scanned}
	}
	if kept[0] != kept[1] || kept[0][1] != replayRecords {
		t.Errorf("kept/scanned counts differ or are short: %v", kept)
	}

	for _, sc := range scenarios() {
		a, err := probeScenario(sc, testSeed, 3)
		if err != nil {
			t.Fatal(err)
		}
		b, err := probeScenario(sc, testSeed, 3)
		if err != nil {
			t.Fatal(err)
		}
		if a.steps != b.steps || a.steps == 0 {
			t.Errorf("%s: simulator steps %d then %d", sc.name, a.steps, b.steps)
		}
	}

	serial, err := campaignPass(testSeed, 1)
	if err != nil {
		t.Fatal(err)
	}
	again, err := campaignPass(testSeed, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := campaignPass(testSeed, campaignWorkers)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, again) || !reflect.DeepEqual(serial, parallel) {
		t.Error("campaign rows differ between repeated or parallel passes")
	}
	if err := errors.Join(paperInvariants(serial)...); err != nil {
		t.Errorf("paper invariants: %v", err)
	}
}

// TestSinkChecksFindings: the output check accepts the reference's
// finding lines and flags a changed or a missing one.
func TestSinkChecksFindings(t *testing.T) {
	c, err := newCapture(20_000, testSeed, liveSessionEvery)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.want) < 2 {
		t.Fatalf("capture has %d findings", len(c.want))
	}
	line := func(id string, frag []byte) []byte {
		return append(append([]byte(`{"type":"finding","stream":`+id+`,"seq":1,`), frag...), `"capture_ts":"x"}`+"\n"...)
	}
	feed := func(mutate func(i int, frag []byte) []byte) error {
		s := newSink()
		tr := s.track(3, &tracker{c: c})
		var out []byte
		for i, frag := range c.want {
			if f := mutate(i, frag); f != nil {
				out = append(out, line("3", f)...)
			}
		}
		out = append(out, `{"type":"stream-end","stream":3}`+"\n"...)
		if _, err := s.Write(out); err != nil {
			t.Fatal(err)
		}
		<-tr.ended
		return s.result(3)
	}
	if err := feed(func(_ int, f []byte) []byte { return f }); err != nil {
		t.Fatalf("reference lines rejected: %v", err)
	}
	changed := func(i int, f []byte) []byte {
		if i == 1 {
			return bytes.Replace(f, []byte(`"frame":`), []byte(`"frame":1`), 1)
		}
		return f
	}
	missing := func(i int, f []byte) []byte {
		if i == len(c.want)-1 {
			return nil
		}
		return f
	}
	for name, m := range map[string]func(int, []byte) []byte{"changed": changed, "missing": missing} {
		if err := feed(m); err == nil {
			t.Errorf("%s finding line passed the check", name)
		}
	}
}

// TestPaperInvariantsCountEachCheck: every invariant is one check, and
// a broken PLOC row or a succeeding passkey-guard fails its own check.
func TestPaperInvariantsCountEachCheck(t *testing.T) {
	rows := campaignRows{
		table2: []eval.TableIIRow{
			{Device: "a", Trials: 20, BlockingSuccess: 20},
			{Device: "b", Trials: 20, BlockingSuccess: 19},
		},
		matrix: []eval.AttackRow{
			{Attack: "passkey-guard", Channel: "clean", DetectorKind: "-", Trials: 20, Succeeded: 1},
			{Attack: "stealtooth", Channel: "clean", DetectorKind: "silent-repairing", Trials: 20, Succeeded: 20, Detected: 20},
		},
	}
	checks := paperInvariants(rows)
	failed := 0
	for _, err := range checks {
		if err != nil {
			failed++
		}
	}
	if len(checks) != 4 || failed != 2 {
		t.Errorf("%d checks with %d failures, want 4 with 2: %v", len(checks), failed, checks)
	}
}
