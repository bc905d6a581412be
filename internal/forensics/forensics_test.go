package forensics

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/snoop"
)

func mustTestbed(t *testing.T, seed int64, opts core.TestbedOptions) *core.Testbed {
	t.Helper()
	tb, err := core.NewTestbed(seed, opts)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestDetectsPageBlockingFromVictimDump(t *testing.T) {
	tb := mustTestbed(t, 1, core.TestbedOptions{})
	rep := core.RunPageBlocking(tb.Sched, core.PageBlockingConfig{
		Attacker: tb.A, Client: tb.C, Victim: tb.M, VictimUser: tb.MUser,
		UsePLOC: true,
	})
	if !rep.MITMEstablished {
		t.Fatal("attack failed")
	}
	report := Analyze(tb.M.Snoop.Records())
	if !report.HasFinding(FindingPageBlocking) {
		t.Fatalf("victim dump should show the page blocking signature:\n%s", report.Render())
	}
	// Session bookkeeping: one incoming session with local pairing init.
	var flagged *Session
	for _, f := range report.Findings {
		if f.Kind == FindingPageBlocking {
			flagged = f.Session
		}
	}
	if flagged == nil || !flagged.Incoming || !flagged.LocalPairingInitiation {
		t.Fatalf("flagged session: %+v", flagged)
	}
	if flagged.Peer != tb.C.Addr() {
		t.Fatalf("flagged peer %s, want the spoofed accessory address", flagged.Peer)
	}
}

func TestNormalPairingRaisesNoPageBlockingFinding(t *testing.T) {
	tb := mustTestbed(t, 2, core.TestbedOptions{})
	tb.MUser.ExpectPairing(tb.C.Addr())
	tb.M.Host.Pair(tb.C.Addr(), func(error) {})
	tb.Sched.RunFor(30 * time.Second)

	report := Analyze(tb.M.Snoop.Records())
	if report.HasFinding(FindingPageBlocking) {
		t.Fatalf("false positive on a normal pairing:\n%s", report.Render())
	}
	// The pairing still legitimately exposed the fresh key in the dump.
	if !report.HasFinding(FindingKeyExposure) {
		t.Fatal("the Link_Key_Notification exposure should be flagged")
	}
	if len(report.Sessions) == 0 || report.Sessions[0].Incoming {
		t.Fatalf("sessions: %+v", report.Sessions)
	}
}

func TestDetectsExtractionStallOnAccessoryDump(t *testing.T) {
	tb := mustTestbed(t, 3, core.TestbedOptions{
		ClientPlatform: device.GalaxyS21Android11,
		Bond:           true,
	})
	if _, err := core.RunLinkKeyExtraction(tb.Sched, core.LinkKeyExtractionConfig{
		Attacker: tb.A, Client: tb.C, Target: tb.M.Addr(), Channel: core.ChannelHCISnoop,
	}); err != nil {
		t.Fatal(err)
	}
	report := Analyze(tb.C.Snoop.Records())
	if !report.HasFinding(FindingStalledAuthTimeout) {
		t.Fatalf("accessory dump should show the stalled-auth trace:\n%s", report.Render())
	}
	if !report.HasFinding(FindingKeyExposure) {
		t.Fatal("the key exposure the attacker harvested should be flagged")
	}
}

// TestAnalyzeFileRoundTrip analyzes a device's pulled snoop log file
// through both capture entries, the bytes one and the reader one.
func TestAnalyzeFileRoundTrip(t *testing.T) {
	tb := mustTestbed(t, 4, core.TestbedOptions{Bond: true})
	tb.M.Host.Pair(tb.C.Addr(), func(error) {})
	tb.Sched.RunFor(30 * time.Second)
	data, err := tb.M.PullSnoopLog()
	if err != nil {
		t.Fatal(err)
	}
	report, err := AnalyzeBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if fromReader, err := AnalyzeBatch(bytes.NewReader(data)); err != nil || !reflect.DeepEqual(fromReader, report) {
		t.Fatalf("AnalyzeBatch differs from AnalyzeBytes (err %v)", err)
	}
	if len(report.Sessions) == 0 {
		t.Fatal("no sessions reconstructed from the file")
	}
	if !strings.Contains(report.Render(), "session") {
		t.Fatal("render")
	}
	if _, err := AnalyzeBytes([]byte("garbage")); err == nil {
		t.Fatal("garbage file accepted")
	}
	if _, err := AnalyzeBatch(strings.NewReader("garbage")); err == nil {
		t.Fatal("garbage stream accepted")
	}
}

func TestAnalyzeTolerantOfTruncatedRecords(t *testing.T) {
	tb := mustTestbed(t, 5, core.TestbedOptions{})
	tb.MUser.ExpectPairing(tb.C.Addr())
	tb.M.Host.Pair(tb.C.Addr(), func(error) {})
	tb.Sched.RunFor(30 * time.Second)
	records := tb.M.Snoop.Records()
	// Mangle a third of the records (as a filter or corruption would).
	for i := range records {
		if i%3 == 0 && len(records[i].Data) > 2 {
			records[i].Data = records[i].Data[:2]
		}
	}
	Analyze(records) // must not panic
	_ = snoop.Record{}
}
