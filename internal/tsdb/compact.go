package tsdb

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// CompactStats reports what one compaction pass did.
type CompactStats struct {
	SegmentsDeleted     int `json:"segments_deleted"`
	SegmentsDownsampled int `json:"segments_downsampled"`
	FramesDropped       int `json:"frames_dropped"`
	FramesMerged        int `json:"frames_merged"`
}

// Compact runs one retention + downsampling pass over every series.
// Sealed segments whose newest frame is older than Options.Retention
// are deleted whole — retention is a segment-granularity guarantee: a
// frame is removed only when everything in its segment has aged out,
// so the window is "at least Retention", never less. Series with a
// registered Downsampler then have their aged, sealed, not-yet-
// downsampled segments rewritten at the coarser resolution.
//
// The active segment is never touched. Each rewrite goes to a temp
// file that is fsynced and renamed over the original, so a crash
// mid-compaction leaves either the old or the new bytes, never a mix;
// Open removes orphaned temp files.
func (s *Store) Compact() (CompactStats, error) {
	now := s.opts.Now()
	var stats CompactStats

	s.mu.Lock()
	srs := make([]*series, 0, len(s.series))
	for _, sr := range s.series {
		srs = append(srs, sr)
	}
	s.mu.Unlock()

	for _, sr := range srs {
		if err := s.compactSeries(sr, now, &stats); err != nil {
			return stats, err
		}
	}
	return stats, nil
}

func (s *Store) compactSeries(sr *series, now time.Time, stats *CompactStats) error {
	sr.mu.Lock()
	defer sr.mu.Unlock()

	// Retention: drop sealed segments that have aged out entirely.
	if s.opts.Retention > 0 {
		cutoff := now.Add(-s.opts.Retention).UnixNano()
		kept := sr.segs[:0]
		for _, g := range sr.segs {
			if g != sr.active && g.frames > 0 && g.maxTS < cutoff {
				if err := os.Remove(g.path); err != nil && !os.IsNotExist(err) {
					return fmt.Errorf("tsdb: compact %s: %w", sr.name, err)
				}
				g.gen++
				stats.SegmentsDeleted++
				stats.FramesDropped += g.frames
				continue
			}
			kept = append(kept, g)
		}
		sr.segs = kept
	}

	// Downsampling: rewrite aged sealed segments at coarser resolution.
	ds, ok := s.opts.Downsample[sr.name]
	if !ok || ds.Merge == nil || ds.Window <= 0 {
		return nil
	}
	eligible := now.Add(-ds.After).UnixNano()
	for _, g := range sr.segs {
		if g == sr.active || g.downsampled || g.frames == 0 || g.maxTS >= eligible {
			continue
		}
		merged, err := downsampleSegment(g, ds)
		if err != nil {
			return fmt.Errorf("tsdb: downsample %s/%08d: %w", sr.name, g.seq, err)
		}
		if merged < 0 {
			continue // nothing to gain; flag it so we don't rescan forever
		}
		stats.SegmentsDownsampled++
		stats.FramesMerged += merged
	}
	return nil
}

// downsampleSegment rewrites g with frames merged into ds.Window
// buckets, updating the index entry (block index included) in place.
// Returns the number of input frames that were folded away. The
// rewrite is atomic: temp file, fsync, rename.
func downsampleSegment(g *segment, ds Downsampler) (int, error) {
	f, err := os.Open(g.path)
	if err != nil {
		return 0, err
	}
	var frames []Frame
	_, _, err = scanSegment(f, func(fr Frame) error {
		data := make([]byte, len(fr.Data))
		copy(data, fr.Data)
		frames = append(frames, Frame{TS: fr.TS, Key: fr.Key, Data: data})
		return nil
	})
	f.Close()
	if err != nil {
		return 0, err
	}

	// Group consecutive frames by time bucket. Frames are in append
	// order; a series that interleaves buckets (clock skew) still merges
	// correctly because grouping is by bucket value, not adjacency.
	window := ds.Window.Nanoseconds()
	byBucket := make(map[int64][]Frame)
	var order []int64
	for _, fr := range frames {
		b := fr.TS / window
		if _, seen := byBucket[b]; !seen {
			order = append(order, b)
		}
		byBucket[b] = append(byBucket[b], fr)
	}

	var out []Frame
	for _, b := range order {
		in := byBucket[b]
		if len(in) == 1 {
			out = append(out, in[0])
			continue
		}
		m, err := ds.Merge(in)
		if err != nil {
			return 0, err
		}
		out = append(out, m)
	}

	tmp := g.path + ".tmp"
	tf, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp) // no-op after successful rename

	var hdr [segHeaderSize]byte
	copy(hdr[:8], segMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], segVersion)
	binary.LittleEndian.PutUint32(hdr[12:16], flagDownsampled)
	if _, err := tf.Write(hdr[:]); err != nil {
		tf.Close()
		return 0, err
	}
	ng := segment{size: segHeaderSize}
	var buf []byte
	for _, fr := range out {
		buf = appendFrame(buf[:0], fr.TS, fr.Key, fr.Data)
		if _, err := tf.Write(buf); err != nil {
			tf.Close()
			return 0, err
		}
		ng.add(fr.TS, int64(len(buf)))
	}
	if err := tf.Sync(); err != nil {
		tf.Close()
		return 0, err
	}
	if err := tf.Close(); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp, g.path); err != nil {
		return 0, err
	}
	syncDir(filepath.Dir(g.path))

	mergedAway := g.frames - ng.frames
	g.size, g.frames, g.minTS, g.maxTS, g.blocks = ng.size, ng.frames, ng.minTS, ng.maxTS, ng.blocks
	g.downsampled = true
	g.gen++
	return mergedAway, nil
}

// syncDir fsyncs a directory so a rename survives power loss. Errors
// are ignored: some filesystems reject directory fsync and the rename
// itself is already atomic at the VFS layer.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}

// compactLoop is the background compactor started by Open.
func (s *Store) compactLoop() {
	defer close(s.compactDone)
	t := time.NewTicker(s.opts.CompactEvery)
	defer t.Stop()
	for {
		select {
		case <-s.compactStop:
			return
		case <-t.C:
			_, _ = s.Compact() // next pass retries; Stats exposes state
		}
	}
}
