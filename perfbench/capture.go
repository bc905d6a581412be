package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/forensics"
	"repro/internal/snoop"
)

// capture is one synthesized btsnoop capture plus its batch reference:
// the findings forensics.AnalyzeBytes reports over the same bytes, which
// every live stream of the capture must reproduce.
type capture struct {
	data    []byte
	records int
	// want[i] is the JSONL fragment the i-th finding event must carry,
	// from its "frame" field through its "detail" field; frames[i] is
	// that finding's completing frame.
	want   [][]byte
	frames []int
}

// synthBytesPerRecord presizes the capture buffer: Synthesize writes
// about 52 bytes per record for every shape the benchmark uses, so the
// buffer never regrows while the capture is generated.
const synthBytesPerRecord = 56

// synthesize generates a deterministic capture into a presized buffer.
func synthesize(records int, seed int64, sessionEvery int) ([]byte, error) {
	var buf bytes.Buffer
	buf.Grow(16 + records*synthBytesPerRecord)
	if _, err := snoop.Synthesize(&buf, snoop.SynthConfig{Records: records, Seed: seed, SessionEvery: sessionEvery}); err != nil {
		return nil, fmt.Errorf("synthesizing capture: %w", err)
	}
	return buf.Bytes(), nil
}

// newCapture synthesizes a capture and analyzes it in batch.
func newCapture(records int, seed int64, sessionEvery int) (*capture, error) {
	data, err := synthesize(records, seed, sessionEvery)
	if err != nil {
		return nil, err
	}
	rep, err := forensics.AnalyzeBytes(data)
	if err != nil {
		return nil, fmt.Errorf("batch reference: %w", err)
	}
	c := &capture{data: data, records: records}
	for _, f := range rep.Findings {
		c.want = append(c.want, findingFragment(f))
		c.frames = append(c.frames, f.Frame)
	}
	return c, nil
}

// findingFragment renders the part of a finding's JSONL line that the
// batch reference determines: frame, kind, peer and detail, encoded the
// way the daemon encodes them (encoding/json strings, empty fields
// omitted).
func findingFragment(f forensics.Finding) []byte {
	b := []byte(`"frame":`)
	b = strconv.AppendInt(b, int64(f.Frame), 10)
	for _, kv := range [][2]string{{"kind", f.Kind}, {"peer", f.Peer.String()}, {"detail", f.Detail}} {
		if kv[1] == "" {
			continue
		}
		v, _ := json.Marshal(kv[1]) // a string always marshals
		b = append(b, `,"`+kv[0]+`":`...)
		b = append(b, v...)
	}
	return append(b, ',')
}

// recordEnds returns the byte offset just past every record of a
// btsnoop capture (the 16-byte file header precedes the first record;
// each record is a 24-byte header, whose included length sits at bytes
// 4..8, plus its payload).
func recordEnds(data []byte) ([]int, error) {
	var ends []int
	off := 16
	for off < len(data) {
		if off+24 > len(data) {
			return nil, fmt.Errorf("capture ends inside a record header at byte %d", off)
		}
		off += 24 + int(binary.BigEndian.Uint32(data[off+4:off+8]))
		if off > len(data) {
			return nil, fmt.Errorf("capture ends inside a record at byte %d", off)
		}
		ends = append(ends, off)
	}
	return ends, nil
}
