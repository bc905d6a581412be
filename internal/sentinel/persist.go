package sentinel

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"repro/internal/forensics"
	"repro/internal/obs"
	"repro/internal/tsdb"
)

// Store series classes. Finding and stream-end events persist as their
// exact JSONL bytes keyed by stream id; the histogram series holds
// interval-delta metrics snapshots keyed 0 (daemon-global); the
// checkpoint series holds detector checkpoints keyed by a hash of the
// session id (sessionKey).
const (
	SeriesFindings = "findings"
	SeriesEnds     = "ends"
	SeriesHist     = "hist"
	SeriesCkpt     = "ckpt"
)

// ckptDoc is the stored form of one detector checkpoint: enough to
// rebuild the session's pipeline after a daemon restart — identity
// (session, tenant, stream id), position (capture offset, frame count,
// datalink), a per-session monotonic sequence (highest wins at
// recovery), and the forensics.SnapshotState blob. A Done doc is a
// tombstone: the stream finished (or its grace expired) and recovery
// must not resurrect it; tombstones carry no state.
type ckptDoc struct {
	Session  string `json:"session"`
	Tenant   string `json:"tenant,omitempty"`
	Stream   uint64 `json:"stream"`
	Seq      uint64 `json:"seq"`
	Offset   int64  `json:"offset"`
	Frames   int    `json:"frames"`
	Datalink uint32 `json:"datalink"`
	Done     bool   `json:"done,omitempty"`
	State    []byte `json:"state,omitempty"`
}

// ckptFrameMagic marks the binary checkpoint framing: a JSON header
// (the ckptDoc with State omitted) length-prefixed after the magic,
// then the raw SnapshotState bytes. Detector states run to megabytes
// on long captures; base64-ing them through json.Marshal cost more
// than the snapshot itself, and the persist goroutine shares a core
// with ingest. Frames starting with '{' decode as the legacy all-JSON
// form, so stores written before the framing change still recover.
const ckptFrameMagic = 0xC8

func encodeCkptFrame(d *ckptDoc) ([]byte, error) {
	hdr := *d
	hdr.State = nil
	hj, err := json.Marshal(&hdr)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, 5+len(hj)+len(d.State))
	buf = append(buf, ckptFrameMagic)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(hj)))
	buf = append(buf, hj...)
	buf = append(buf, d.State...)
	return buf, nil
}

func decodeCkptFrame(data []byte, d *ckptDoc) error {
	if len(data) > 0 && data[0] == '{' {
		return json.Unmarshal(data, d)
	}
	if len(data) < 5 || data[0] != ckptFrameMagic {
		return fmt.Errorf("sentinel: unrecognized checkpoint frame")
	}
	n := int(binary.LittleEndian.Uint32(data[1:5]))
	if n > len(data)-5 {
		return fmt.Errorf("sentinel: checkpoint frame header %d bytes exceeds frame", n)
	}
	if err := json.Unmarshal(data[5:5+n], d); err != nil {
		return err
	}
	if rest := data[5+n:]; len(rest) > 0 {
		d.State = append([]byte(nil), rest...)
	}
	return nil
}

// persistItem is one unit on a shard's persist queue: a stamped event
// (ckpt nil) or a detector checkpoint document.
type persistItem struct {
	ev   Event
	ts   int64
	ckpt *ckptDoc
}

// tryPersist places one item on the shard's persist queue. Non-blocking
// by default (durability is best-effort; a full queue is a skipped
// checkpoint or a counted drop, never a stall); block is used for the
// park and final checkpoints, whose loss would cost resumability. A
// send on the closed post-Shutdown queue (only reachable from a wedged
// stream's abandoned goroutines) reports false instead of crashing.
func (sh *shard) tryPersist(it persistItem, block bool) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	if block {
		sh.persist <- it
		return true
	}
	select {
	case sh.persist <- it:
		return true
	default:
		return false
	}
}

// queueCheckpoint snapshots the detector and queues the checkpoint for
// this session stream. The caller must have drained the detector (the
// snapshot codec refuses undrained state). seq advances only when the
// snapshot succeeds, so stored sequences are dense per session.
func (s *Server) queueCheckpoint(st *streamState, det *forensics.Detector, off int64, frames int, datalink uint32, seq *uint64, block bool) {
	if st.session == "" || st.sh.persist == nil {
		return
	}
	// Live snapshot, not full: the reducer never reads the accumulated
	// report back, so resumed findings are byte-identical either way,
	// and the live set stays kilobytes where the full report grows with
	// the capture — megabyte snapshots every CheckpointEvery interval
	// were the single largest ingest overhead at replay speed.
	state, err := det.SnapshotLiveState()
	if err != nil {
		return
	}
	*seq++
	st.sh.tryPersist(persistItem{
		ts: time.Now().UnixNano(),
		ckpt: &ckptDoc{
			Session: st.session, Tenant: st.tenant, Stream: st.id,
			Seq: *seq, Offset: off, Frames: frames, Datalink: datalink,
			State: state,
		},
	}, block)
}

// persistLoop is a shard's persistence consumer: it drains the bounded
// queue, append-encodes each event into a reused buffer (the same
// encoder the JSONL writer uses, so the durable bytes equal the emitted
// line), and appends to the store. Store errors count as drops — the
// queue keeps draining, so one bad write never wedges the shard.
func (sh *shard) persistLoop() {
	defer close(sh.pdone)
	var buf []byte
	for it := range sh.persist {
		if hook := sh.srv.cfg.beforePersist; hook != nil {
			hook(sh.idx)
		}
		if it.ckpt != nil {
			sh.persistCkpt(it)
			continue
		}
		series := SeriesFindings
		if it.ev.Type == EventStreamEnd {
			series = SeriesEnds
		}
		buf = it.ev.appendJSON(buf[:0])
		if err := sh.srv.cfg.Store.Append(series, it.ts, it.ev.Stream, buf); err != nil {
			sh.m.persistDropped.Add(1)
			continue
		}
		sh.m.persistAppended.Add(1)
	}
}

// persistCkpt makes one checkpoint durable and then announces it.
// Checkpoints are deliberately outside the persistAppended/Dropped
// event accounting — those counters mirror the JSONL event stream and
// tests pin the exact correspondence. The announcement (a "checkpoint"
// JSONL line) goes out only after the append AND an fsync of the
// checkpoint series, so
// the line on Output is a reliable kill-the-daemon-here marker: any
// checkpoint an operator (or the crash drill in verify.sh) has seen is
// guaranteed to survive a kill -9.
func (sh *shard) persistCkpt(it persistItem) {
	d := it.ckpt
	doc, err := encodeCkptFrame(d)
	if err != nil {
		return
	}
	if err := sh.srv.cfg.Store.Append(SeriesCkpt, it.ts, sessionKey(d.Session), doc); err != nil {
		return
	}
	if err := sh.srv.cfg.Store.SyncSeries(SeriesCkpt); err != nil {
		return
	}
	sh.srv.sess.checkpoints.Add(1)
	if d.Done {
		return // tombstones are bookkeeping, not operator events
	}
	sh.enqueue(shardItem{ev: Event{
		Type: EventCheckpoint, Stream: d.Stream, Session: d.Session,
		Offset: d.Offset, Frame: d.Frames,
		TS: time.Unix(0, it.ts).UTC().Format(time.RFC3339Nano),
	}})
}

// histPoint is the persisted form of one metrics snapshotter interval:
// the raw histogram deltas (not quantiles) for the ingest and detect
// instruments, folded across shards, plus the interval they cover.
// Storing deltas rather than cumulative states is what makes both
// window queries and downsampling lossless bucket merges — "p99 over
// the last hour" is obs.SnapshotOf over the hour's deltas, and an aged
// segment merges adjacent deltas without losing a single bucket count.
type histPoint struct {
	TS         string             `json:"ts"`
	IntervalMS int64              `json:"interval_ms"`
	Ingest     obs.HistogramState `json:"ingest"`
	Detect     obs.HistogramState `json:"detect"`
}

// foldStates returns the cumulative ingest and detect histogram states
// folded across every shard.
func (s *Server) foldStates() (ingest, detect obs.HistogramState) {
	ingest = obs.HistogramState{MinNS: -1}
	detect = obs.HistogramState{MinNS: -1}
	for _, sh := range s.shards {
		ingest = ingest.Merge(sh.m.ingest.State())
		detect = detect.Merge(sh.m.detect.State())
	}
	return ingest, detect
}

// metricsLoop persists one histPoint per MetricsEvery interval: the
// cumulative fold across shards, diffed against the previous tick.
// Empty intervals (no observations) are skipped. On shutdown it
// persists whatever the final partial interval accumulated.
func (s *Server) metricsLoop() {
	defer close(s.snapDone)
	t := time.NewTicker(s.cfg.MetricsEvery)
	defer t.Stop()
	var prevIngest, prevDetect obs.HistogramState
	prevAt := time.Now()
	snap := func() {
		now := time.Now()
		ingest, detect := s.foldStates()
		dIngest, dDetect := ingest.Sub(prevIngest), detect.Sub(prevDetect)
		if dIngest.Empty() && dDetect.Empty() {
			return
		}
		prevIngest, prevDetect = ingest, detect
		pt := histPoint{
			TS:         now.UTC().Format(time.RFC3339Nano),
			IntervalMS: now.Sub(prevAt).Milliseconds(),
			Ingest:     dIngest,
			Detect:     dDetect,
		}
		prevAt = now
		doc, err := json.Marshal(pt)
		if err != nil {
			return
		}
		if err := s.cfg.Store.Append(SeriesHist, now.UnixNano(), 0, doc); err == nil {
			s.shards[0].m.persistAppended.Add(1)
		} else {
			s.shards[0].m.persistDropped.Add(1)
		}
	}
	for {
		select {
		case <-s.snapStop:
			snap() // final partial interval
			return
		case <-t.C:
			snap()
		}
	}
}

// HistDownsample returns the retention decay policy for the histogram
// series: after the given age, every window of interval deltas merges
// into one coarser delta. The merge is lossless for everything a
// quantile query reads (bucket counts, totals, sums); the point's TS
// and frame timestamp keep the newest input's, so time-window pruning
// stays correct.
func HistDownsample(after, window time.Duration) tsdb.Downsampler {
	return tsdb.Downsampler{
		After:  after,
		Window: window,
		Merge: func(frames []tsdb.Frame) (tsdb.Frame, error) {
			var merged histPoint
			for i, fr := range frames {
				var pt histPoint
				if err := json.Unmarshal(fr.Data, &pt); err != nil {
					return tsdb.Frame{}, fmt.Errorf("hist point %d: %w", i, err)
				}
				merged.TS = pt.TS
				merged.IntervalMS += pt.IntervalMS
				merged.Ingest = merged.Ingest.Merge(pt.Ingest)
				merged.Detect = merged.Detect.Merge(pt.Detect)
			}
			doc, err := json.Marshal(merged)
			if err != nil {
				return tsdb.Frame{}, err
			}
			last := frames[len(frames)-1]
			return tsdb.Frame{TS: last.TS, Key: last.Key, Data: doc}, nil
		},
	}
}

// QueryEvent is one persisted event row in a /query response: the
// frame's wall timestamp and stream key, plus the stored JSONL object
// verbatim (it is the same bytes the live stream emitted).
type QueryEvent struct {
	TS     string          `json:"ts"`
	Stream uint64          `json:"stream"`
	Event  json.RawMessage `json:"event"`
}

// QueryResult is the /query response document. Event series
// (findings, ends) fill Results; the histogram series folds the
// window's stored deltas into Ingest/Detect percentile snapshots
// covering IntervalMS of observed run time. The handler does not build
// this struct: appendQuery writes the document straight from the
// store, and this is the schema clients (and the tests) decode it into.
type QueryResult struct {
	Series    string       `json:"series"`
	Count     int          `json:"count"`
	Truncated bool         `json:"truncated,omitempty"`
	Results   []QueryEvent `json:"results,omitempty"`

	IntervalMS int64         `json:"interval_ms,omitempty"`
	Ingest     *obs.Snapshot `json:"ingest,omitempty"`
	Detect     *obs.Snapshot `json:"detect,omitempty"`
}

// defaultQueryLimit caps /query result rows unless ?limit= raises it;
// Truncated tells the caller the cap bit.
const defaultQueryLimit = 10000

// maxQueryUnixSec bounds the unix-seconds form of a query time: any
// |sec| beyond it overflows the nanosecond conversion (~year 2262) and
// would wrap negative, silently turning an out-of-range since=/until=
// into an empty result instead of a 400.
const maxQueryUnixSec = math.MaxInt64 / int64(time.Second)

// parseQueryTime accepts RFC3339(Nano) or integer unix seconds.
func parseQueryTime(v string) (int64, error) {
	if t, err := time.Parse(time.RFC3339Nano, v); err == nil {
		return t.UnixNano(), nil
	}
	if sec, err := strconv.ParseInt(v, 10, 64); err == nil {
		if sec > maxQueryUnixSec || sec < -maxQueryUnixSec {
			return 0, fmt.Errorf("unix seconds %d out of range (|sec| must be <= %d)", sec, maxQueryUnixSec)
		}
		return sec * int64(time.Second), nil
	}
	return 0, fmt.Errorf("bad time %q (want RFC3339 or unix seconds)", v)
}

// queryParams is one validated /query request.
type queryParams struct {
	series       string
	since, until int64
	key          uint64
	limit        int
}

// parseQuery validates /query parameters; until defaults to now. Every
// error is the caller's fault (a 400).
func parseQuery(q url.Values, now int64) (queryParams, error) {
	p := queryParams{series: q.Get("series"), until: now, limit: defaultQueryLimit}
	var err error
	if v := q.Get("since"); v != "" {
		if p.since, err = parseQueryTime(v); err != nil {
			return p, err
		}
	}
	if v := q.Get("until"); v != "" {
		if p.until, err = parseQueryTime(v); err != nil {
			return p, err
		}
	}
	if v := q.Get("stream"); v != "" {
		if p.key, err = strconv.ParseUint(v, 10, 64); err != nil || p.key == 0 {
			return p, fmt.Errorf("bad stream %q", v)
		}
	}
	if v := q.Get("limit"); v != "" {
		if p.limit, err = strconv.Atoi(v); err != nil || p.limit <= 0 {
			return p, fmt.Errorf("bad limit %q", v)
		}
	}
	switch p.series {
	case SeriesFindings, SeriesEnds, SeriesHist:
		return p, nil
	}
	return p, fmt.Errorf("bad series %q (want %s, %s, or %s)",
		p.series, SeriesFindings, SeriesEnds, SeriesHist)
}

// queryBufs recycles /query response buffers: a dashboard polling every
// 200 ms reuses the previous poll's bytes instead of growing a fresh
// half-megabyte slice.
var queryBufs = sync.Pool{New: func() any { return new([]byte) }}

// handleQuery serves GET /query?series=findings|ends|hist with
// optional stream=, since=, until=, limit= parameters. Served 404 when
// no store is configured (the endpoint does not exist without one).
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Cache-Control", "no-store")
	if s.cfg.Store == nil {
		http.Error(w, "no store configured", http.StatusNotFound)
		return
	}
	p, err := parseQuery(r.URL.Query(), time.Now().UnixNano())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	bp := queryBufs.Get().(*[]byte)
	defer queryBufs.Put(bp)
	buf, doc, err := s.appendQuery((*bp)[:0], p)
	*bp = buf[:0]
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, err = w.Write(buf[doc:])
	s.noteWriteErr("/query", err)
}

// The /query document is written in one pass from the store's frames
// to the response bytes, and those bytes are exactly what
//
//	enc := json.NewEncoder(w)
//	enc.SetIndent("", "  ")
//	enc.Encode(QueryResult{...})
//
// wrote for the same rows: two-space indentation, "key": value
// spacing, omitempty fields left out, a trailing newline, and every
// stored event compacted with HTML escaping and re-indented three levels
// deep. TestQueryWriterMatchesEncoder pins the identity against that
// encoder.
//
// An event series' header (count, truncated) is known only after the
// rows are written, so the rows start queryHeadRoom bytes on and the
// header is then written right-aligned in front of them.
const queryHeadRoom = 128 // > the longest header, with a 20-digit count

// appendQuery appends the /query document for p to buf and returns the
// extended buffer and the offset in it where the document starts (for
// event series, somewhere in the head room reserved past len(buf)).
func (s *Server) appendQuery(buf []byte, p queryParams) ([]byte, int, error) {
	if p.series == SeriesHist {
		doc := len(buf)
		buf, err := s.appendQueryHist(buf, p)
		return buf, doc, err
	}
	head := len(buf) + queryHeadRoom
	b := append(buf, make([]byte, queryHeadRoom)...)
	count, truncated := 0, false
	err := s.cfg.Store.Query(p.series, p.since, p.until, p.key, func(fr tsdb.Frame) error {
		if count >= p.limit {
			truncated = true
			return errQueryLimit
		}
		if count > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n    {\n      \"ts\": \""...)
		b = time.Unix(0, fr.TS).UTC().AppendFormat(b, time.RFC3339Nano)
		b = append(b, "\",\n      \"stream\": "...)
		b = strconv.AppendUint(b, fr.Key, 10)
		b = append(b, ",\n      \"event\": "...)
		var err error
		if b, err = appendIndented(b, fr.Data, 3); err != nil {
			return err
		}
		b = append(b, "\n    }"...)
		count++
		return nil
	})
	if err != nil && err != errQueryLimit {
		return b, 0, err
	}
	if count > 0 {
		b = append(b, "\n  ]"...)
	}
	b = append(b, "\n}\n"...)

	var hb [queryHeadRoom]byte
	h := appendQueryHead(hb[:0], p.series, count, truncated)
	if count > 0 {
		h = append(h, ",\n  \"results\": ["...)
	}
	return b, head - copy(b[head-len(h):head], h), nil
}

// appendQueryHead appends the fields every /query document opens with.
func appendQueryHead(b []byte, series string, count int, truncated bool) []byte {
	b = append(b, "{\n  \"series\": "...)
	b = appendJSONString(b, series)
	b = append(b, ",\n  \"count\": "...)
	b = strconv.AppendInt(b, int64(count), 10)
	if truncated {
		b = append(b, ",\n  \"truncated\": true"...)
	}
	return b
}

// appendQueryHist appends the hist series document: the window's stored
// interval deltas folded into one ingest and one detect snapshot.
func (s *Server) appendQueryHist(b []byte, p queryParams) ([]byte, error) {
	var points int
	var intervalMS int64
	ingest := obs.HistogramState{MinNS: -1}
	detect := obs.HistogramState{MinNS: -1}
	err := s.cfg.Store.Query(p.series, p.since, p.until, 0, func(fr tsdb.Frame) error {
		var pt histPoint
		if err := json.Unmarshal(fr.Data, &pt); err != nil {
			return fmt.Errorf("corrupt hist point: %w", err)
		}
		points++
		intervalMS += pt.IntervalMS
		ingest = ingest.Merge(pt.Ingest)
		detect = detect.Merge(pt.Detect)
		return nil
	})
	if err != nil {
		return b, err
	}
	b = appendQueryHead(b, p.series, points, false)
	if intervalMS != 0 {
		b = append(b, ",\n  \"interval_ms\": "...)
		b = strconv.AppendInt(b, intervalMS, 10)
	}
	for _, f := range []struct {
		name  string
		state obs.HistogramState
	}{{"ingest", ingest}, {"detect", detect}} {
		snap, err := json.Marshal(obs.SnapshotOf(f.state))
		if err != nil {
			return b, err
		}
		b = append(b, ",\n  \""...)
		b = append(b, f.name...)
		b = append(b, "\": "...)
		if b, err = appendIndented(b, snap, 1); err != nil {
			return b, err
		}
	}
	return append(b, "\n}\n"...), nil
}

// errQueryLimit is the internal sentinel Query callbacks return to stop
// iteration once the response row cap is hit.
var errQueryLimit = fmt.Errorf("query limit reached")

// indentSpecial marks the bytes inside a JSON string that appendIndented
// cannot copy through: the string's end, an escape, and what
// encoding/json's HTML-safe compaction rewrites (<, >, &, and 0xE2,
// the lead byte of U+2028/U+2029).
var indentSpecial = func() (t [256]bool) {
	for _, c := range []byte{'"', '\\', '<', '>', '&', 0xE2} {
		t[c] = true
	}
	return
}()

// appendIndented appends the JSON value src to dst the way
// encoding/json renders a json.RawMessage inside an indented Encoder
// when the value sits depth levels deep: compacted with HTML escaping
// (<, >, & and U+2028/U+2029 inside strings become \u escapes), then
// laid out by json.Indent's rules — each element on its own line,
// two spaces per level, ": " after keys, and {} / [] kept on one line
// when empty. An empty src is a nil RawMessage and renders as null.
//
// It tracks strings and nesting but is not a validator: stored events
// were written by appendJSON and are CRC-checked on read. Unbalanced
// brackets or an unterminated string are reported as errors so a
// damaged payload fails the request instead of yielding broken JSON.
func appendIndented(dst, src []byte, depth int) ([]byte, error) {
	if len(src) == 0 {
		return append(dst, "null"...), nil
	}
	open, needIndent := 0, false
	newline := func(d int) {
		dst = append(dst, '\n')
		for ; d > 0; d-- {
			dst = append(dst, ' ', ' ')
		}
	}
	for i := 0; i < len(src); i++ {
		c := src[i]
		switch c {
		case ' ', '\t', '\n', '\r':
			continue
		}
		if needIndent && c != '}' && c != ']' {
			needIndent = false
			depth++
			newline(depth)
		}
		switch c {
		case '{', '[':
			open++
			needIndent = true
			dst = append(dst, c)
		case '}', ']':
			if open--; open < 0 {
				return dst, errBadStoredJSON
			}
			if needIndent {
				needIndent = false // empty object or array
			} else {
				depth--
				newline(depth)
			}
			dst = append(dst, c)
		case ',':
			dst = append(dst, c)
			newline(depth)
		case ':':
			dst = append(dst, c, ' ')
		case '"':
			dst = append(dst, c)
			i++
			start := i
			for ; i < len(src); i++ {
				c := src[i]
				if !indentSpecial[c] {
					continue
				}
				dst = append(dst, src[start:i]...)
				start = i + 1
				switch {
				case c == '"':
				case c == '\\':
					if i+1 == len(src) {
						return dst, errBadStoredJSON
					}
					dst = append(dst, c, src[i+1])
					i++
					start = i + 1
					continue
				case c == 0xE2:
					if i+2 < len(src) && src[i+1] == 0x80 && src[i+2]&^1 == 0xA8 {
						dst = append(dst, '\\', 'u', '2', '0', '2', jsonHex[src[i+2]&0xF])
						i += 2
						start = i + 1
					} else {
						dst = append(dst, c)
					}
					continue
				default: // <, >, &
					dst = append(dst, '\\', 'u', '0', '0', jsonHex[c>>4], jsonHex[c&0xF])
					continue
				}
				break // closing quote
			}
			if i == len(src) {
				return dst, errBadStoredJSON
			}
			dst = append(dst, '"')
		default:
			dst = append(dst, c)
		}
	}
	if open != 0 {
		return dst, errBadStoredJSON
	}
	return dst, nil
}

// errBadStoredJSON reports a stored payload that is not a JSON value.
var errBadStoredJSON = fmt.Errorf("sentinel: stored event is not JSON")
