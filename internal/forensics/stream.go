package forensics

import (
	"fmt"
	"io"

	"repro/internal/snoop"
)

// AnalyzeBatch reconstructs sessions and findings from a btsnoop stream
// through the batch pipeline: block scanning (snoop.BatchScanner) with
// the RelevantRecord prefilter pushed into the scan sweep, feeding
// Detector.PushKept. It produces a report bit-identical to Analyze over
// the same records — the identity tests and the scanner differential
// fuzz pin this — in memory bounded by the scan block, whatever the
// capture size. This is the path hcidump -analyze runs.
func AnalyzeBatch(r io.Reader) (*Report, error) {
	return analyzeBatches(snoop.NewBatchScannerSize(r, 256<<10))
}

// AnalyzeBytes is AnalyzeBatch for a capture already in memory: records
// are decoded aliasing data directly, with no copies at all.
func AnalyzeBytes(data []byte) (*Report, error) {
	return analyzeBatches(snoop.NewBatchScannerBytes(data))
}

func analyzeBatches(sc *snoop.BatchScanner) (*Report, error) {
	// No live-event hook: batch analysis reads findings from the report,
	// so buffering Events nobody drains would only add churn. The
	// prefilter runs inside the scan sweep (ScanBatchKeep), so the ~97%
	// of records the reducer ignores are never even materialized; the
	// few that survive carry their absolute frame numbers in b.Frames.
	d := &Detector{st: newSessionState()}
	var b snoop.RecordBatch
	for sc.ScanBatchKeep(&b, RelevantRecord) {
		d.PushKept(b.Frames, b.Records)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("forensics: parsing capture: %w", err)
	}
	return d.Finish(), nil
}
