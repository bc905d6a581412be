package snoop

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// refScan is the reference decoder the BatchScanner is tested against:
// the plainest possible reading of the format, one io.ReadFull for the
// file header and then one per record header and per payload, with no
// buffering, batching or shared code beyond the format constants. It
// returns every record (copied; record i is frame i+1), the datalink,
// the offset where reading stopped — the end of the stream, the exact
// byte where a truncated stream ran out, or the start of a misframed
// record header — and the terminal error (nil for a clean end at a
// record boundary).
func refScan(r io.Reader) (recs []Record, datalink uint32, off int64, err error) {
	// short classifies a ReadFull that ran out after reading part of an
	// element: any end of stream is mid-element truncation.
	short := func(err error) error {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return fmt.Errorf("%w: %w", ErrTruncated, io.ErrUnexpectedEOF)
		}
		return err
	}

	var fh [16]byte
	n, rerr := io.ReadFull(r, fh[:])
	off += int64(n)
	if rerr != nil {
		return nil, 0, off, short(rerr)
	}
	if string(fh[:8]) != "btsnoop\x00" {
		return nil, 0, off, ErrBadMagic
	}
	if binary.BigEndian.Uint32(fh[8:12]) != 1 {
		return nil, 0, off, ErrBadVersion
	}
	datalink = binary.BigEndian.Uint32(fh[12:16])
	if datalink < 1001 || datalink > 1004 {
		return nil, 0, off, ErrBadDatalink
	}

	for {
		var rh [24]byte
		start := off
		n, rerr := io.ReadFull(r, rh[:])
		off += int64(n)
		if rerr == io.EOF {
			return recs, datalink, off, nil
		}
		if rerr != nil {
			return recs, datalink, off, short(rerr)
		}
		orig := binary.BigEndian.Uint32(rh[0:4])
		incl := binary.BigEndian.Uint32(rh[4:8])
		if incl > 1<<20 {
			return recs, datalink, start, errors.New("implausible record length")
		}
		if incl > orig {
			return recs, datalink, start, ErrBadFraming
		}
		data := make([]byte, incl)
		n, rerr = io.ReadFull(r, data)
		off += int64(n)
		if rerr != nil {
			return recs, datalink, off, short(rerr)
		}
		ts := int64(binary.BigEndian.Uint64(rh[16:24])) - btsnoopEpochDelta
		recs = append(recs, Record{
			OriginalLength:  orig,
			Flags:           binary.BigEndian.Uint32(rh[8:12]),
			CumulativeDrops: binary.BigEndian.Uint32(rh[12:16]),
			Timestamp:       time.UnixMicro(ts).UTC(),
			Data:            data,
		})
	}
}
