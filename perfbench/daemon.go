package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/sentinel"
	"repro/internal/tsdb"
)

// daemon is an in-process sentinel server configured the way blapd runs
// with -store: a Unix ingestion socket, the HTTP /query API on
// loopback, a tsdb store and periodic detector checkpoints, all at
// their defaults except the persist queue depth.
type daemon struct {
	dir   string
	store *tsdb.Store
	srv   *sentinel.Server
	sink  *sink
	ends  chan sentinel.StreamSummary
	web   *http.Client
	down  bool  // the server has been shut down
	err   error // what shutting it down returned
}

func startDaemon(dir string) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	store, err := tsdb.Open(tsdb.Options{Dir: dir + "/store"})
	if err != nil {
		return nil, fmt.Errorf("opening store: %w", err)
	}
	d := &daemon{
		dir:   dir,
		store: store,
		sink:  newSink(),
		// Streams run one at a time; the buffer only decouples the
		// server's end hook from the client's receive.
		ends: make(chan sentinel.StreamSummary, 4),
		web: &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		},
	}
	d.srv = sentinel.New(sentinel.Config{
		UnixAddr: dir + "/s.sock",
		HTTPAddr: "127.0.0.1:0",
		Output:   d.sink,
		Store:    store,
		// At the default depth (8192) a checkpoint fsync that stalls the
		// persist goroutine for more than about 160 ms drops findings on
		// the live workload's 50k findings/s; benchtables' sentinel entry
		// uses the same deeper queue for the same reason.
		PersistBuffer: 1 << 16,
		OnStreamEnd:   func(sum sentinel.StreamSummary) { d.ends <- sum },
	})
	if err := d.srv.Start(); err != nil {
		store.Close()
		return nil, err
	}
	return d, nil
}

// shutdown stops the server; the store stays open for reading. Later
// calls return the first call's result.
func (d *daemon) shutdown() error {
	if d.down {
		return d.err
	}
	d.down = true
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d.web.CloseIdleConnections()
	d.err = d.srv.Shutdown(ctx)
	return d.err
}

// stop shuts the server down, closes the store and removes its files.
func (d *daemon) stop() error {
	err := d.shutdown()
	if cerr := d.store.Close(); err == nil {
		err = cerr
	}
	os.RemoveAll(d.dir)
	return err
}

// session is one client stream on the session protocol.
type session struct {
	conn    net.Conn
	hello   sentinel.SessionHello
	drained chan error // receives once the server closes its side
}

// dial opens a session and starts draining the server's acks: a client
// that leaves acks unread can lose capture bytes when it closes.
func (d *daemon) dial(id string) (*session, error) {
	conn, hello, err := sentinel.DialSession("unix", d.srv.UnixAddr(), id, "", 10*time.Second)
	if err != nil {
		return nil, err
	}
	s := &session{conn: conn, hello: hello, drained: make(chan error, 1)}
	go func() {
		_, err := io.Copy(io.Discard, conn)
		s.drained <- err
	}()
	return s, nil
}

// finish sends the fin, waits for the server's stream-end hook and for
// the server to close the connection, and returns the stream summary
// and when the hook fired.
func (d *daemon) finish(s *session) (sentinel.StreamSummary, time.Time, error) {
	defer s.conn.Close()
	if err := sentinel.WriteSessionFin(s.conn); err != nil {
		return sentinel.StreamSummary{}, time.Time{}, fmt.Errorf("session fin: %w", err)
	}
	var sum sentinel.StreamSummary
	select {
	case sum = <-d.ends:
	case <-time.After(30 * time.Second):
		return sum, time.Time{}, fmt.Errorf("stream %d did not end", s.hello.Stream)
	}
	at := time.Now()
	if sum.ID != s.hello.Stream {
		return sum, at, fmt.Errorf("stream %d ended while %d was open", sum.ID, s.hello.Stream)
	}
	if err := <-s.drained; err != nil {
		return sum, at, fmt.Errorf("draining acks: %w", err)
	}
	return sum, at, nil
}

// query issues one GET against the /query API, reads the whole body
// and returns the round trip.
func (d *daemon) query(q string) (time.Duration, error) {
	t := time.Now()
	resp, err := d.web.Get("http://" + d.srv.HTTPAddr() + "/query?" + q)
	if err != nil {
		return 0, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	rt := time.Since(t)
	if err != nil {
		return rt, err
	}
	if resp.StatusCode != http.StatusOK {
		return rt, fmt.Errorf("/query?%s: status %d", q, resp.StatusCode)
	}
	return rt, nil
}

// checkStream checks a stream summary against the capture it carried.
func checkStream(sum sentinel.StreamSummary, c *capture) error {
	switch {
	case sum.Status != sentinel.StatusClean:
		return fmt.Errorf("stream %d ended %q: %v", sum.ID, sum.Status, sum.Err)
	case sum.Records != c.records || sum.Bytes != int64(len(c.data)):
		return fmt.Errorf("stream %d: %d records, %d bytes; sent %d, %d", sum.ID, sum.Records, sum.Bytes, c.records, len(c.data))
	case sum.EventsDropped != 0:
		return fmt.Errorf("stream %d dropped %d events", sum.ID, sum.EventsDropped)
	}
	return nil
}
