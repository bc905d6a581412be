package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/snoop"
	"repro/internal/usbsniff"
)

// goldenModes maps each golden file suffix to the hcidump arguments that
// produced it.
var goldenModes = []struct {
	name string
	args []string
}{
	{"table", nil},
	{"hex", []string{"-hex"}},
	{"keys", []string{"-keys"}},
	{"analyze", []string{"-analyze"}},
	{"follow", []string{"-follow", "-idle", "100ms"}},
}

// goldenCaptures are the testdata inputs: a btsim extraction capture
// (btsim -scenario extraction -seed 7, the client's dump), the same
// capture cut seven bytes short of its last record, and the same
// capture with the fifth record's included length raised past its
// original length (a framing error at offset 157).
var goldenCaptures = []string{"extraction_C", "trunc", "corrupt"}

// runGolden runs the binary from testdata on a relative capture path, so
// the file name in error messages is stable, and renders the result in
// the golden file layout.
func runGolden(t *testing.T, bin string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Dir = "testdata"
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("running %v: %v", args, err)
	}
	return code, out.String(), errOut.String()
}

func goldenText(code int, stdout, stderr string) string {
	return fmt.Sprintf("exit %d\n-- stdout --\n%s-- stderr --\n%s", code, stdout, stderr)
}

// TestGoldenOutput pins every btsnoop mode's stdout, stderr and exit code
// on fixed captures to output recorded from an earlier build, so a change
// of capture reader cannot move a byte of what operators see. -stats
// runs the same modes through the per-record collector; its stdout and
// exit code must match too (its stderr carries wall-clock rates).
func TestGoldenOutput(t *testing.T) {
	bin := buildBinary(t)
	for _, c := range goldenCaptures {
		for _, m := range goldenModes {
			want, err := os.ReadFile(filepath.Join("testdata", c+"."+m.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			args := append(append([]string(nil), m.args...), c+".btsnoop")
			if got := goldenText(runGolden(t, bin, args...)); got != string(want) {
				t.Errorf("%s %s: output drifted from golden\n got:\n%s\nwant:\n%s", c, m.name, got, want)
			}
			statsArgs := append([]string{"-stats"}, args...)
			code, stdout, _ := runGolden(t, bin, statsArgs...)
			wantCode, wantOut, _ := splitGolden(t, string(want))
			if code != wantCode || stdout != wantOut {
				t.Errorf("%s %s -stats: exit %d stdout\n%s\nwant exit %d stdout\n%s", c, m.name, code, stdout, wantCode, wantOut)
			}
		}
	}
}

func splitGolden(t *testing.T, g string) (code int, stdout, stderr string) {
	t.Helper()
	head, rest, ok := strings.Cut(g, "\n-- stdout --\n")
	if !ok {
		t.Fatalf("malformed golden:\n%s", g)
	}
	if _, err := fmt.Sscanf(head, "exit %d", &code); err != nil {
		t.Fatalf("malformed golden head %q: %v", head, err)
	}
	stdout, stderr, ok = strings.Cut(rest, "-- stderr --\n")
	if !ok {
		t.Fatalf("malformed golden:\n%s", g)
	}
	return code, stdout, stderr
}

// TestGoldenMatchesLibrary ties the table, -hex and -keys goldens to the
// in-memory library: the table is RenderTable(Summarize(ReadAll)), the
// hex section one row per record, and -keys one line per
// ExtractLinkKeys hit. On a damaged capture the table covers the records
// ReadAll delivered before the error, -hex stops after that table, and
// -keys prints nothing to stdout.
func TestGoldenMatchesLibrary(t *testing.T) {
	for _, c := range goldenCaptures {
		data, err := os.ReadFile(filepath.Join("testdata", c+".btsnoop"))
		if err != nil {
			t.Fatal(err)
		}
		recs, readErr := snoop.ReadAll(data)
		table := snoop.RenderTable(snoop.Summarize(recs))

		var hex strings.Builder
		hex.WriteString(table + "\n")
		for i, rec := range recs {
			dir := "TX"
			if rec.Received() {
				dir = "RX"
			}
			fmt.Fprintf(&hex, "%-5d %s %s  %s\n", i+1, rec.Timestamp.Format("15:04:05.000000"), dir, usbsniff.AppendHex(nil, rec.Data))
		}

		var keys strings.Builder
		hits := snoop.ExtractLinkKeys(recs)
		if len(hits) == 0 {
			keys.WriteString("no plaintext link keys found\n")
		}
		for _, h := range hits {
			fmt.Fprintf(&keys, "frame %-5d %-36s peer %s  key %s\n", h.Frame, h.Source, h.Peer, h.Key)
		}

		want := map[string]string{"table": table, "hex": hex.String(), "keys": keys.String()}
		if readErr != nil {
			want["hex"], want["keys"] = table, ""
		}
		for mode, w := range want {
			g, err := os.ReadFile(filepath.Join("testdata", c+"."+mode+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			code, stdout, _ := splitGolden(t, string(g))
			if stdout != w {
				t.Errorf("%s %s: golden stdout\n%s\nlibrary\n%s", c, mode, stdout, w)
			}
			if (code != 0) != (readErr != nil) {
				t.Errorf("%s %s: golden exit %d, ReadAll error %v", c, mode, code, readErr)
			}
		}
	}
}
