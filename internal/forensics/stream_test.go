package forensics

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/bt"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/hci"
	"repro/internal/snoop"
)

// streamTestCaptures serializes one capture per interesting scenario:
// the three testbed dumps the analyzer tests pin (attacked victim,
// innocent pairing, attacked accessory) plus a synthetic noisy capture.
func streamTestCaptures(t *testing.T) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)

	tb := mustTestbed(t, 1, core.TestbedOptions{})
	core.RunPageBlocking(tb.Sched, core.PageBlockingConfig{
		Attacker: tb.A, Client: tb.C, Victim: tb.M, VictimUser: tb.MUser, UsePLOC: true,
	})
	data, err := tb.M.PullSnoopLog()
	if err != nil {
		t.Fatal(err)
	}
	out["page-blocked-victim"] = data

	tb2 := mustTestbed(t, 2, core.TestbedOptions{})
	tb2.MUser.ExpectPairing(tb2.C.Addr())
	tb2.M.Host.Pair(tb2.C.Addr(), func(error) {})
	tb2.Sched.RunFor(30 * time.Second)
	if out["normal-pairing"], err = tb2.M.PullSnoopLog(); err != nil {
		t.Fatal(err)
	}

	tb3 := mustTestbed(t, 3, core.TestbedOptions{
		ClientPlatform: device.GalaxyS21Android11, Bond: true,
	})
	if _, err := core.RunLinkKeyExtraction(tb3.Sched, core.LinkKeyExtractionConfig{
		Attacker: tb3.A, Client: tb3.C, Target: tb3.M.Addr(), Channel: core.ChannelHCISnoop,
	}); err != nil {
		t.Fatal(err)
	}
	if out["extraction-accessory"], err = tb3.C.PullSnoopLog(); err != nil {
		t.Fatal(err)
	}

	var synth bytes.Buffer
	if _, err := snoop.Synthesize(&synth, snoop.SynthConfig{Records: 8000, Seed: 11}); err != nil {
		t.Fatal(err)
	}
	out["synthetic"] = synth.Bytes()
	return out
}

// TestAnalyzeStreamMatchesAnalyze pins the capture entries to the
// in-memory reference: AnalyzeBatch over a block reader, a one-byte
// trickle reader (every record straddles a read) and a small-block
// scanner, and AnalyzeBytes over the slice, must each produce a report
// deeply identical to Analyze(ReadAll), findings order included.
func TestAnalyzeStreamMatchesAnalyze(t *testing.T) {
	for name, data := range streamTestCaptures(t) {
		recs, err := snoop.ReadAll(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := Analyze(recs)
		if name != "normal-pairing" && len(want.Findings) == 0 {
			t.Fatalf("%s: scenario lost its findings", name)
		}
		for mode, run := range map[string]func() (*Report, error){
			"batch":   func() (*Report, error) { return AnalyzeBatch(bytes.NewReader(data)) },
			"trickle": func() (*Report, error) { return AnalyzeBatch(iotest.OneByteReader(bytes.NewReader(data))) },
			"block4k": func() (*Report, error) {
				return analyzeBatches(snoop.NewBatchScannerSize(bytes.NewReader(data), 4<<10))
			},
			"bytes": func() (*Report, error) { return AnalyzeBytes(data) },
		} {
			got, err := run()
			if err != nil {
				t.Fatalf("%s %s: %v", name, mode, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %s: batch report differs from Analyze\nbatch:  %s\nmemory: %s",
					name, mode, got.Render(), want.Render())
			}
		}
	}
}

// TestFailedConnectionCompleteDoesNotLeakIncoming reproduces the
// pendingIncoming leak: an inbound page that fails must not mark a later
// outgoing session to the same peer as incoming, which would fabricate a
// page-blocking signature.
func TestFailedConnectionCompleteDoesNotLeakIncoming(t *testing.T) {
	peer := bt.MustBDADDR("00:1a:7d:da:71:0a")
	base := snoop.CaptureBase
	rec := func(i int, received bool, wire []byte) snoop.Record {
		flags := uint32(snoop.FlagCommandEvent)
		if received {
			flags |= snoop.FlagDirectionReceived
		}
		return snoop.Record{
			OriginalLength: uint32(len(wire)),
			Flags:          flags,
			Timestamp:      base.Add(time.Duration(i) * time.Millisecond),
			Data:           wire,
		}
	}
	records := []snoop.Record{
		// Inbound page accepted, but the completion fails.
		rec(0, true, hci.EncodeEvent(&hci.ConnectionRequest{Addr: peer, COD: bt.CODHeadset, LinkType: hci.LinkTypeACL}).Wire()),
		rec(1, false, hci.EncodeCommand(&hci.AcceptConnectionRequest{Addr: peer, Role: 1}).Wire()),
		rec(2, true, hci.EncodeEvent(&hci.ConnectionComplete{Status: hci.StatusPageTimeout, Addr: peer}).Wire()),
		// Later *outgoing* connection to the same peer, with the elements
		// that would complete a page-blocking signature if Incoming leaked.
		rec(3, true, hci.EncodeEvent(&hci.ConnectionComplete{Status: hci.StatusSuccess, Handle: 9, Addr: peer, LinkType: hci.LinkTypeACL}).Wire()),
		rec(4, false, hci.EncodeCommand(&hci.AuthenticationRequested{Handle: 9}).Wire()),
		rec(5, true, hci.EncodeEvent(&hci.IOCapabilityResponse{Addr: peer, Capability: bt.NoInputNoOutput}).Wire()),
	}
	report := Analyze(records)
	if len(report.Sessions) != 1 {
		t.Fatalf("sessions: %d (the failed completion must not create one)", len(report.Sessions))
	}
	if report.Sessions[0].Incoming {
		t.Fatal("failed inbound page leaked into the outgoing session")
	}
	if report.HasFinding(FindingPageBlocking) {
		t.Fatalf("false page-blocking signature:\n%s", report.Render())
	}
}

// TestAnalyzeStreamBoundedMemory checks the batch pipeline never
// buffers the whole capture: total allocation during an AnalyzeBatch
// pass over a large capture read from a stream must stay well below the
// capture size.
func TestAnalyzeStreamBoundedMemory(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is distorted by the race detector")
	}
	var buf bytes.Buffer
	if _, err := snoop.Synthesize(&buf, snoop.SynthConfig{Records: 300_000, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := AnalyzeBatch(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if len(rep.Sessions) == 0 {
		t.Fatal("no sessions")
	}
	allocated := after.TotalAlloc - before.TotalAlloc
	if allocated > uint64(len(data))/2 {
		t.Fatalf("streaming pass allocated %d bytes over a %d-byte capture — not bounded", allocated, len(data))
	}
}
