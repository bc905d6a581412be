package sentinel

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/tsdb"
)

// queryBase is the seeded store's time origin, well in the past so a
// query's default until (now) covers every frame.
var queryBase = time.Date(2020, 3, 1, 12, 0, 0, 0, time.UTC).UnixNano()

// rawQueryPayloads are stored events that did not come from appendJSON:
// raw <, >, & and U+2028/U+2029 inside strings (which encoding/json's
// HTML-safe compaction escapes), insignificant whitespace, nesting,
// empty objects and arrays, escapes next to quotes, invalid UTF-8, and
// an empty payload (a nil RawMessage, rendered null).
var rawQueryPayloads = []string{
	`{"type":"finding","detail":"raw <b>&</b> here"}`,
	"{\"detail\":\"seps\u2028and\u2029, lone \xe2\x80 lead\"}",
	"{ \"a\" : [ 1 , 2 ,\n\t{ \"b\" : { } , \"c\" : [ ] } ] ,\r\n \"d\" : null }",
	`{"q":"\"\\","r":"\\\"","s":"<` + "\u2028\U0001F600" + `"}`,
	"{\"bad\":\"\xff\xfe\xc3(\"}",
	`[{"nested":[[{}],[[]],{"x":{"y":{"z":[true,false,-1.5e-7]}}}]}]`,
	`"bare string <&>"`,
	`12345`,
	``,
}

// seedQueryStore fills a store with every shape /query serves: each
// encoderFixtures event as a finding and as a stream end (so the
// adversarial Label/Detail/Error/Peer/Session strings all round-trip
// through the store), the raw payloads, frames at extreme timestamps,
// and histogram points with populated and empty states.
func seedQueryStore(tb testing.TB) *tsdb.Store {
	tb.Helper()
	store, err := tsdb.Open(tsdb.Options{Dir: tb.TempDir(), CompactEvery: -1, SyncEvery: -1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { store.Close() })
	app := func(series string, ts int64, key uint64, data []byte) {
		if err := store.Append(series, ts, key, data); err != nil {
			tb.Fatal(err)
		}
	}
	for i, ev := range encoderFixtures {
		key := uint64(1 + i%3)
		ts := queryBase + int64(i)*int64(time.Second) + int64(i)*1000 // varied fractional seconds
		app(SeriesFindings, ts, key, ev.appendJSON(nil))
		app(SeriesEnds, ts+int64(time.Millisecond), key, ev.appendJSON(nil))
	}
	for i, p := range rawQueryPayloads {
		app(SeriesFindings, queryBase+int64(100+i)*int64(time.Second), 4, []byte(p))
	}
	for _, ts := range []int64{0, -1, math.MaxInt64, math.MinInt64, queryBase + 1} {
		app(SeriesEnds, ts, 5, (&Event{Type: EventStreamEnd, Stream: 5, Status: StatusClean}).appendJSON(nil))
	}

	var h obs.Histogram
	for i, d := range []time.Duration{3 * time.Microsecond, 40 * time.Microsecond, 2 * time.Millisecond, time.Second} {
		h.Observe(d)
		pt := histPoint{
			TS:         time.Unix(0, queryBase).UTC().Format(time.RFC3339Nano),
			IntervalMS: int64(i * 250),
			Ingest:     h.State(),
			Detect:     obs.HistogramState{MinNS: -1},
		}
		doc, err := json.Marshal(pt)
		if err != nil {
			tb.Fatal(err)
		}
		app(SeriesHist, queryBase+int64(i)*int64(time.Minute), 0, doc)
	}
	return store
}

// oracleQuery is the response /query served before the one-pass
// writer: the rows collected into a QueryResult and rendered by
// encoding/json's indenting Encoder. ok is false where that encoder
// failed (it wrote nothing).
func oracleQuery(tb testing.TB, store *tsdb.Store, p queryParams) (body []byte, ok bool) {
	tb.Helper()
	res := QueryResult{Series: p.series}
	switch p.series {
	case SeriesFindings, SeriesEnds:
		err := store.Query(p.series, p.since, p.until, p.key, func(fr tsdb.Frame) error {
			if len(res.Results) >= p.limit {
				res.Truncated = true
				return errQueryLimit
			}
			res.Results = append(res.Results, QueryEvent{
				TS:     time.Unix(0, fr.TS).UTC().Format(time.RFC3339Nano),
				Stream: fr.Key,
				Event:  json.RawMessage(append([]byte(nil), fr.Data...)),
			})
			return nil
		})
		if err != nil && err != errQueryLimit {
			tb.Fatal(err)
		}
		res.Count = len(res.Results)
	case SeriesHist:
		ingest := obs.HistogramState{MinNS: -1}
		detect := obs.HistogramState{MinNS: -1}
		err := store.Query(p.series, p.since, p.until, 0, func(fr tsdb.Frame) error {
			var pt histPoint
			if err := json.Unmarshal(fr.Data, &pt); err != nil {
				return err
			}
			res.Count++
			res.IntervalMS += pt.IntervalMS
			ingest = ingest.Merge(pt.Ingest)
			detect = detect.Merge(pt.Detect)
			return nil
		})
		if err != nil {
			tb.Fatal(err)
		}
		iSnap, dSnap := obs.SnapshotOf(ingest), obs.SnapshotOf(detect)
		res.Ingest, res.Detect = &iSnap, &dSnap
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		return nil, false
	}
	return buf.Bytes(), true
}

// serveQuery runs one /query request through the handler.
func serveQuery(s *Server, rawQuery string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.handleQuery(rec, &http.Request{Method: http.MethodGet, URL: &url.URL{Path: "/query", RawQuery: rawQuery}})
	return rec
}

// TestQueryWriterMatchesEncoder is the one-pass writer's byte-identity
// contract: for every series, window, key filter and limit — empty and
// truncated results included — the /query body equals what the
// indenting encoding/json Encoder wrote for the same rows, down to the
// trailing newline.
func TestQueryWriterMatchesEncoder(t *testing.T) {
	store := seedQueryStore(t)
	s := &Server{cfg: Config{Store: store}}
	sec := func(n int) string { return strconv.FormatInt(queryBase/int64(time.Second)+int64(n), 10) }
	queries := []string{
		"series=findings",
		"series=ends",
		"series=hist",
		"series=findings&stream=1",
		"series=findings&stream=4",
		"series=ends&stream=5",
		"series=ends&stream=5&since=-9223372036",
		"series=findings&limit=1",
		"series=findings&limit=3&stream=2",
		"series=ends&limit=2",
		"series=findings&limit=" + strconv.Itoa(len(encoderFixtures)+len(rawQueryPayloads)),
		"series=findings&since=" + sec(3) + "&until=" + sec(9),
		"series=findings&since=" + sec(100),
		"series=hist&since=" + sec(60) + "&until=" + sec(120),
		"series=findings&stream=99",                     // empty
		"series=hist&since=" + sec(100000),              // empty hist
		"series=ends&since=2020-03-01T12:00:05.000005Z", // RFC3339 window
		"series=findings&until=2020-03-01T12:00:00Z&limit=7",
	}
	for _, q := range queries {
		rec := serveQuery(s, q)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", q, rec.Code, rec.Body)
		}
		p, err := parseQuery(mustParseQuery(t, q), time.Now().UnixNano())
		if err != nil {
			t.Fatal(err)
		}
		want, ok := oracleQuery(t, store, p)
		if !ok {
			t.Fatalf("%s: the oracle encoder failed", q)
		}
		if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
			t.Fatalf("%s: writer diverges from encoding/json\n got: %q\nwant: %q", q, got, want)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s: Content-Type %q", q, ct)
		}
	}
}

func mustParseQuery(tb testing.TB, q string) url.Values {
	v, err := url.ParseQuery(q)
	if err != nil {
		tb.Fatal(err)
	}
	return v
}

// TestAppendIndentedRejectsDamagedPayload: a stored payload that is not
// a JSON value fails the request (500) rather than yielding a body that
// does not parse.
func TestAppendIndentedRejectsDamagedPayload(t *testing.T) {
	for _, bad := range []string{`{"a":1`, `{"a":"open}`, `]`, `{"a":"\`} {
		if _, err := appendIndented(nil, []byte(bad), 3); err == nil {
			t.Fatalf("appendIndented(%q) accepted a damaged payload", bad)
		}
	}
	store := seedQueryStore(t)
	if err := store.Append(SeriesFindings, queryBase, 9, []byte(`{"cut":"`)); err != nil {
		t.Fatal(err)
	}
	rec := serveQuery(&Server{cfg: Config{Store: store}}, "series=findings&stream=9")
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("damaged payload: status %d, body %q", rec.Code, rec.Body)
	}
}

// FuzzQuery feeds arbitrary query strings to /query over a small seeded
// store. The handler must not panic, must answer 200 or 400 only, and
// every 200 must decode as a QueryResult whose event rows number Count,
// at most the request's limit — and equal, byte for byte, what the
// encoding/json oracle renders for the same parameters.
func FuzzQuery(f *testing.F) {
	for _, seed := range []string{
		"series=findings",
		"series=ends&stream=5&limit=2",
		"series=hist&since=1583064000&until=1583064300",
		"series=findings&since=2020-03-01T12:00:03Z&until=2020-03-01T12:01:00.5Z&limit=4",
		"series=findings&limit=0",
		"series=ends&stream=18446744073709551615",
		"series=findings&since=99999999999999",
		"series=nope&limit=-1",
		"series=findings&series=ends&stream=1&stream=2",
		"series=%66indings&limit=%31",
		"%zz&series=findings",
		"",
	} {
		f.Add(seed)
	}
	store := seedQueryStore(f)
	s := &Server{cfg: Config{Store: store}}
	f.Fuzz(func(t *testing.T, raw string) {
		rec := serveQuery(s, raw)
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest:
			return
		default:
			t.Fatalf("%q: status %d: %s", raw, rec.Code, rec.Body)
		}
		var res QueryResult
		if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
			t.Fatalf("%q: 200 body does not decode: %v\n%s", raw, err, rec.Body)
		}
		q, _ := url.ParseQuery(raw) // the handler ignores malformed pairs the same way
		p, err := parseQuery(q, time.Now().UnixNano())
		if err != nil {
			t.Fatalf("%q: served 200 for parameters parseQuery rejects: %v", raw, err)
		}
		if res.Series != p.series {
			t.Fatalf("%q: series %q, want %q", raw, res.Series, p.series)
		}
		if p.series != SeriesHist && (res.Count != len(res.Results) || res.Count > p.limit) {
			t.Fatalf("%q: count %d, %d rows, limit %d", raw, res.Count, len(res.Results), p.limit)
		}
		if want, ok := oracleQuery(t, store, p); ok && !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("%q: writer diverges from encoding/json\n got: %q\nwant: %q", raw, rec.Body, want)
		}
	})
}

// BenchmarkQueryWriter is the handler's cost for the dashboard poll:
// 1000 finding rows written from the store into the response buffer.
func BenchmarkQueryWriter(b *testing.B) {
	store, err := tsdb.Open(tsdb.Options{Dir: b.TempDir(), CompactEvery: -1, SyncEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	for i := 0; i < 1000; i++ {
		ev := Event{
			Type: EventFinding, Stream: uint64(1 + i%4), Seq: uint64(i + 1), Frame: 20 * i,
			Kind: "page-blocking", Peer: fmt.Sprintf("AA:BB:CC:DD:EE:%02X", i%256),
			Detail:    "page timeout from legitimate central while a paired attacker holds the connection",
			CaptureTS: "2026-08-01T12:00:00.123456789Z", TS: "2026-08-01T12:00:00.223456789Z",
		}
		if err := store.Append(SeriesFindings, queryBase+int64(i)*20_000, ev.Stream, ev.appendJSON(nil)); err != nil {
			b.Fatal(err)
		}
	}
	s := &Server{cfg: Config{Store: store}}
	p := queryParams{series: SeriesFindings, until: math.MaxInt64, limit: 1000}
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buf, _, err = s.appendQuery(buf[:0], p); err != nil {
			b.Fatal(err)
		}
	}
}
