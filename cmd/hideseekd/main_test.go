package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hideseek/internal/calib"
	"hideseek/internal/emulation"
	"hideseek/internal/iq"
	"hideseek/internal/obs"
	"hideseek/internal/phy"
	"hideseek/internal/stream"
	"hideseek/internal/zigbee"
)

// testCapture renders a cf32 capture holding one authentic and one
// emulated frame, returning the raw bytes and the expected attack flags
// in stream order.
func testCapture(t *testing.T, seed int64) ([]byte, []bool) {
	t.Helper()
	auth, err := zigbee.NewTransmitter().TransmitPSDU([]byte("hs-daemon"))
	if err != nil {
		t.Fatal(err)
	}
	em, err := emulation.NewEmulator(emulation.AttackConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := em.Emulate(auth)
	if err != nil {
		t.Fatal(err)
	}
	capture, err := stream.BuildCapture(rand.New(rand.NewSource(seed)), 1e-3, 500, auth, res.Emulated4M)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := iq.WriteCF32(&buf, capture); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), []bool{false, true}
}

// zigbeePipelines serves ZigBee with the low sync threshold the test
// captures need.
func zigbeePipelines(t *testing.T) []*phy.Pipeline {
	t.Helper()
	zb, err := phy.Build("zigbee", phy.Options{SyncThreshold: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	return []*phy.Pipeline{zb}
}

func testDaemon(t *testing.T, workers int) (*daemon, *httptest.Server) {
	t.Helper()
	engine, err := stream.NewEngine(stream.Config{
		Workers:   workers,
		Pipelines: zigbeePipelines(t),
		Shards:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := newDaemon(engine, 30*time.Second)
	ts, _ := serve(d)
	t.Cleanup(func() {
		ts.Close()
		engine.Close()
	})
	return d, ts
}

// serve starts d's HTTP server, the one run builds, on a loopback test
// listener. The returned buffer collects the server's error log.
func serve(d *daemon) (*httptest.Server, *logBuffer) {
	logs := new(logBuffer)
	ts := httptest.NewUnstartedServer(nil)
	ts.Config = d.httpServer(context.Background())
	ts.Config.ErrorLog = log.New(logs, "", 0)
	ts.Start()
	return ts, logs
}

// logBuffer is a log destination that goroutines may share.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *logBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestClassifyEndpoint(t *testing.T) {
	_, ts := testDaemon(t, 2)
	capture, want := testCapture(t, 5)
	resp, err := http.Post(ts.URL+"/v1/classify", "application/octet-stream", bytes.NewReader(capture))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var cr classifyResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	if len(cr.Verdicts) != len(want) {
		t.Fatalf("%d verdicts, want %d", len(cr.Verdicts), len(want))
	}
	for i, v := range cr.Verdicts {
		if !v.Decided() {
			t.Fatalf("verdict %d undecided: dropped=%v err=%q", i, v.Dropped, v.Err)
		}
		if v.Attack != want[i] {
			t.Errorf("verdict %d attack=%v, want %v (D²E %.4f)", i, v.Attack, want[i], v.DistanceSquared)
		}
	}
	if cr.Stats.Frames != int64(len(want)) {
		t.Errorf("stats frames %d, want %d", cr.Stats.Frames, len(want))
	}
}

// streamRec decodes one NDJSON line of a /v1/stream (or raw TCP)
// response: verdict records carry "seq", the trailer carries "stats".
type streamRec struct {
	Seq    *uint64       `json:"seq"`
	Attack bool          `json:"attack"`
	Stats  *stream.Stats `json:"stats"`
	Err    string        `json:"error"`
}

func readStream(t *testing.T, r *bufio.Scanner) ([]streamRec, *streamRec) {
	t.Helper()
	var verdicts []streamRec
	for r.Scan() {
		var rec streamRec
		if err := json.Unmarshal(r.Bytes(), &rec); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", r.Text(), err)
		}
		if rec.Stats != nil {
			return verdicts, &rec
		}
		if rec.Seq == nil {
			t.Fatalf("record without seq or stats: %q", r.Text())
		}
		verdicts = append(verdicts, rec)
	}
	t.Fatalf("stream ended without a stats trailer (scan err %v)", r.Err())
	return nil, nil
}

// TestConcurrentStreamClients is the acceptance check: four streaming
// clients against one shared engine, each receiving its own ordered
// verdicts. Run under -race in CI.
func TestConcurrentStreamClients(t *testing.T) {
	_, ts := testDaemon(t, 4)
	const clients = 4
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			capture, want := testCapture(t, int64(100+c))
			resp, err := http.Post(ts.URL+"/v1/stream", "application/octet-stream", bytes.NewReader(capture))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			sc := bufio.NewScanner(resp.Body)
			sc.Buffer(make([]byte, 1<<20), 1<<20)
			verdicts, trail := readStream(t, sc)
			if trail.Err != "" {
				errs <- fmt.Errorf("client %d: trailer error %q", c, trail.Err)
				return
			}
			if len(verdicts) != len(want) {
				errs <- fmt.Errorf("client %d: %d verdicts, want %d", c, len(verdicts), len(want))
				return
			}
			for i, v := range verdicts {
				if *v.Seq != uint64(i) {
					errs <- fmt.Errorf("client %d: verdict %d has seq %d", c, i, *v.Seq)
					return
				}
				if v.Attack != want[i] {
					errs <- fmt.Errorf("client %d: verdict %d attack=%v, want %v", c, i, v.Attack, want[i])
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestMethodAndHealthEndpoints(t *testing.T) {
	d, ts := testDaemon(t, 2)
	for _, path := range []string{"/v1/classify", "/v1/stream"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET %s: status %d, want 405", path, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Workers != d.engine.Workers() {
		t.Errorf("health %+v", h)
	}
	if h.Shards != d.engine.Shards() || len(h.ShardTable) != d.engine.Shards() {
		t.Errorf("health shard table %+v, want %d shards", h.ShardTable, d.engine.Shards())
	}
	for i, row := range h.ShardTable {
		if row.Shard != i || row.Tier != "accept" {
			t.Errorf("shard row %d: %+v, want shard %d tier accept", i, row, i)
		}
	}
}

func TestObsEndpointExposesDropCounter(t *testing.T) {
	_, ts := testDaemon(t, 2)
	resp, err := http.Get(ts.URL + "/v1/obs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if _, ok := snap.Counters["stream.dropped_frames"]; !ok {
		t.Errorf("snapshot lacks stream.dropped_frames: %v", snap.Counters)
	}
}

// TestAdmissionShedsWith503: with admission on at its default limits and
// the shard's rolling scan p95 heated past the 20 ms shed limit, the next
// session on the shard is shed — /v1/classify and /v1/stream must answer
// 503, not a half-open NDJSON stream.
func TestAdmissionShedsWith503(t *testing.T) {
	engine, err := stream.NewEngine(stream.Config{
		Workers:   2,
		Pipelines: zigbeePipelines(t),
		Admission: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := newDaemon(engine, 30*time.Second)
	ts := httptest.NewServer(d.routes())
	t.Cleanup(func() {
		ts.Close()
		engine.Close()
	})

	// Heat the signal admission reads. Instruments are name-registered
	// and process-global, so a million one-second scans hold shard 0's
	// windowed p95 past the shed limit whatever else this binary has
	// observed there.
	obs.H("stream.shard0.scan_ns").ObserveN(1e9, 1<<20)
	capture, _ := testCapture(t, 23)
	for _, path := range []string{"/v1/classify", "/v1/stream"} {
		resp, err := http.Post(ts.URL+path+"?session=hot-client", "application/octet-stream", bytes.NewReader(capture))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s on hot shard: status %d, want 503", path, resp.StatusCode)
		}
	}
}

// TestCalibClassBound: with calibration on, ?calib_class= may name at
// most calib.MaxClasses classes of [A-Za-z0-9_]{1,64}. Any other class is
// a 400 before the session starts, even on an empty body, so a client
// can neither grow the class table without bound nor put two classes on
// one exported gauge name (a.b and a-b would both be
// hideseek_calib_threshold_a_b) and break the /metrics exposition. The
// cap never locks out a protocol's own class: a session naming no class
// is still served after the hostile ones.
func TestCalibClassBound(t *testing.T) {
	engine, err := stream.NewEngine(stream.Config{
		Workers:     1,
		Pipelines:   zigbeePipelines(t),
		Calibration: &calib.Config{},
	})
	if err != nil {
		t.Fatal(err)
	}
	d := newDaemon(engine, 30*time.Second)
	ts := httptest.NewServer(d.routes())
	t.Cleanup(func() {
		ts.Close()
		engine.Close()
	})

	classify := func(class string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/classify?calib_class="+url.QueryEscape(class), "application/octet-stream", http.NoBody)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, class := range []string{"a.b", "a-b", "a b", strings.Repeat("x", calib.MaxClassName+1)} {
		if got := classify(class); got != http.StatusBadRequest {
			t.Errorf("class %q: status %d, want 400", class, got)
		}
	}
	for i := 0; i < calib.MaxClasses; i++ {
		if got := classify(fmt.Sprintf("class_%d", i)); got != http.StatusOK {
			t.Fatalf("class %d of %d: status %d, want 200", i+1, calib.MaxClasses, got)
		}
	}
	if got := classify("one_too_many"); got != http.StatusBadRequest {
		t.Errorf("class %d: status %d, want 400", calib.MaxClasses+1, got)
	}
	if got := classify(""); got != http.StatusOK {
		t.Errorf("protocol default class after %d hostile classes: status %d, want 200", calib.MaxClasses, got)
	}
	if got := len(engine.Calibration().Status()); got != calib.MaxClasses+1 {
		t.Errorf("%d calibration classes, want %d", got, calib.MaxClasses+1)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := obs.LintPrometheus(resp.Body); err != nil {
		t.Fatalf("/metrics after hostile classes: %v", err)
	}
}

// calibDaemon is a daemon serving ZigBee with online calibration on.
func calibDaemon(t testing.TB) *daemon {
	t.Helper()
	zb, err := phy.Build("zigbee", phy.Options{SyncThreshold: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	engine, err := stream.NewEngine(stream.Config{
		Workers:     1,
		Pipelines:   []*phy.Pipeline{zb},
		Calibration: &calib.Config{},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(engine.Close)
	return newDaemon(engine, 30*time.Second)
}

// TestCalibBodyBound: a PUT /v1/calib client that never ends its body
// gets 413 with Connection: close, and the server stops reading there:
// it consumes at most maxCalibBody plus 16 KiB for the request head,
// chunk framing and the connection's read-ahead.
func TestCalibBodyBound(t *testing.T) {
	ts := httptest.NewUnstartedServer(nil)
	ts.Config = calibDaemon(t).httpServer(context.Background())
	ln := &countingListener{Listener: ts.Listener}
	ts.Listener = ln
	ts.Start()
	defer ts.Close()

	const bound = maxCalibBody + 16<<10
	pr, pw := io.Pipe()
	go func() {
		// An unterminated class string, endless as far as the server can
		// tell; the writer gives up only far past the bound.
		if _, err := pw.Write([]byte(`{"class":"`)); err != nil {
			return
		}
		pad := bytes.Repeat([]byte("a"), 1<<10)
		for sent := 0; sent < 1024*bound; sent += len(pad) {
			if _, err := pw.Write(pad); err != nil {
				return
			}
		}
		pw.CloseWithError(fmt.Errorf("server read %d bytes without answering", 1024*bound))
	}()
	defer pr.Close()
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/calib", pr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || !resp.Close {
		t.Fatalf("status %d, close %v; want 413 with Connection: close", resp.StatusCode, resp.Close)
	}
	pr.Close()
	ts.Close() // wait for the connection, so the count is complete
	if n := ln.read.Load(); n > bound {
		t.Fatalf("server read %d bytes, want at most %d", n, bound)
	}
}

// FuzzCalibPut sends arbitrary PUT /v1/calib bodies through the daemon's
// handler with calibration on and the "zigbee" class created by one
// session. It must not panic; the status is 200, 400, 404 or 413; the
// handler reads at most maxCalibBody+1 bytes (the one past the cap is how
// it sees the cap); and a 200 reply shows the body's operations in the
// class status. Seeds are in testdata/fuzz/FuzzCalibPut.
func FuzzCalibPut(f *testing.F) {
	h := calibDaemon(f).routes()
	ts := httptest.NewServer(h)
	resp, err := http.Post(ts.URL+"/v1/classify", "application/octet-stream", http.NoBody)
	if err != nil {
		f.Fatal(err)
	}
	resp.Body.Close()
	ts.Close()
	if resp.StatusCode != http.StatusOK {
		f.Fatalf("empty session: status %d, want 200", resp.StatusCode)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		br := &countingReader{r: bytes.NewReader(body)}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/v1/calib", br))
		if br.n > maxCalibBody+1 {
			t.Fatalf("handler read %d bytes of the body, want at most %d", br.n, maxCalibBody+1)
		}
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge:
			return
		default:
			t.Fatalf("status %d for %q", rec.Code, body)
		}
		var up calibUpdate
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&up); err != nil {
			t.Fatalf("200 for a body that does not decode (%v): %q", err, body)
		}
		var st calib.Status
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatalf("200 reply %q: %v", rec.Body, err)
		}
		if st.Class != up.Class {
			t.Fatalf("reply for class %q, body named %q", st.Class, up.Class)
		}
		switch {
		case up.ClearOverride:
			if st.Override != nil || st.Source == calib.SourceOperator.String() {
				t.Fatalf("override still set after clear_override: %+v", st)
			}
		case up.Threshold != nil:
			if st.Override == nil || *st.Override != *up.Threshold || st.Threshold != *up.Threshold || st.Source != calib.SourceOperator.String() {
				t.Fatalf("threshold %v not the operator override: %+v", *up.Threshold, st)
			}
		}
		if up.Rearm && (st.Fit != nil || st.State != "warmup") {
			t.Fatalf("class not in warmup after rearm: %+v", st)
		}
	})
}

// TestRefusalIsAStatusOnBothEndpoints: a session the engine refuses
// before its first sample (a calibration class the manager refuses, an
// unserved protocol) answers 400 on /v1/classify and on /v1/stream alike,
// never a 200 with an error trailer, even though a whole capture is still
// on the wire; and the server never panics over the unread body.
func TestRefusalIsAStatusOnBothEndpoints(t *testing.T) {
	engine, err := stream.NewEngine(stream.Config{
		Workers:     1,
		Pipelines:   zigbeePipelines(t),
		Calibration: &calib.Config{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	ts, logs := serve(newDaemon(engine, 30*time.Second))
	defer ts.Close()

	capture, _ := testCapture(t, 29)
	for _, path := range []string{"/v1/classify", "/v1/stream"} {
		for _, query := range []string{"calib_class=a.b", "proto=nope"} {
			resp, err := http.Post(ts.URL+path+"?"+query, "application/octet-stream", bytes.NewReader(capture))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s?%s: status %d (%q), want 400", path, query, resp.StatusCode, body)
			}
		}
	}
	ts.Close() // wait for every connection, so the log is complete
	if strings.Contains(logs.String(), "panic") {
		t.Fatalf("server error log:\n%s", logs)
	}
}

// TestClassifyVerdictCap: a /v1/classify client that never ends its body
// gets 413 once its session passes maxClassifyVerdicts, and the server
// stops reading there: it consumes at most the captures those verdicts
// came from plus 2 MiB, for in-flight frames and read-ahead.
func TestClassifyVerdictCap(t *testing.T) {
	engine, err := stream.NewEngine(stream.Config{Workers: 2, Pipelines: zigbeePipelines(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	ts := httptest.NewUnstartedServer(nil)
	ts.Config = newDaemon(engine, 30*time.Second).httpServer(context.Background())
	ln := &countingListener{Listener: ts.Listener}
	ts.Listener = ln
	ts.Start()
	defer ts.Close()

	capture, want := testCapture(t, 31)
	bound := int64((maxClassifyVerdicts/len(want)+1)*len(capture) + 2<<20)
	pr, pw := io.Pipe()
	go func() {
		// Endless as far as the server can tell; the writer gives up only
		// well past the bound, so a server that never answers fails the
		// test instead of hanging it.
		for sent := int64(0); sent < 4*bound; sent += int64(len(capture)) {
			if _, err := pw.Write(capture); err != nil {
				return
			}
		}
		pw.CloseWithError(fmt.Errorf("server read %d bytes without answering", 4*bound))
	}()
	defer pr.Close()
	resp, err := http.Post(ts.URL+"/v1/classify", "application/octet-stream", pr)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	if n := ln.read.Load(); n > bound {
		t.Fatalf("server read %d bytes, want at most %d", n, bound)
	}
}

// countingListener counts the bytes its connections read.
type countingListener struct {
	net.Listener
	read atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, read: &l.read}, nil
}

type countingConn struct {
	net.Conn
	read *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Add(int64(n))
	return n, err
}

// TestHeaderTrickleIsClosed: the HTTP server's ReadHeaderTimeout is
// -deadline, so a client that sends its request header a byte at a time
// is cut off soon after the deadline rather than holding the connection.
func TestHeaderTrickleIsClosed(t *testing.T) {
	engine, err := stream.NewEngine(stream.Config{Workers: 1, Pipelines: zigbeePipelines(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	const deadline = 300 * time.Millisecond
	ts, _ := serve(newDaemon(engine, deadline))
	defer ts.Close()

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	closed := make(chan time.Duration, 1)
	go func() {
		io.Copy(io.Discard, conn)
		closed <- time.Since(start)
	}()
	head := "POST /v1/stream HTTP/1.1\r\nHost: trickle\r\n" + strings.Repeat("X-Trickle: a\r\n", 1000)
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	limit := time.After(deadline + 5*time.Second)
	for i := 0; ; i++ {
		select {
		case took := <-closed:
			if took < deadline {
				t.Fatalf("closed after %v, before the %v deadline", took, deadline)
			}
			return
		case <-limit:
			t.Fatalf("still open %v after the %v header deadline (%d header bytes sent)", deadline+5*time.Second, deadline, i)
		case <-tick.C:
			conn.Write([]byte{head[i%len(head)]})
		}
	}
}

// TestSessionCap: open sessions are capped at the engine's frame-queue
// capacity. With one shard of depth 2, two stalled /v1/stream sessions
// hold the cap, a third HTTP session gets 503 and a raw-TCP one an error
// trailer; once the two end, sessions are served again.
func TestSessionCap(t *testing.T) {
	engine, err := stream.NewEngine(stream.Config{Workers: 1, QueueDepth: 2, Pipelines: zigbeePipelines(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	d := newDaemon(engine, 30*time.Second)
	ts, _ := serve(d)
	defer ts.Close()

	capture, _ := testCapture(t, 37)
	var stalled sync.WaitGroup
	var writers []*io.PipeWriter
	for i := 0; i < 2; i++ {
		pr, pw := io.Pipe()
		writers = append(writers, pw)
		go pw.Write(capture) // then stall: the body never ends
		stalled.Add(1)
		go func() {
			defer stalled.Done()
			resp, err := http.Post(ts.URL+"/v1/stream", "application/octet-stream", pr)
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); d.open.Load() < 2; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d sessions open, want the 2 stalled ones", d.open.Load())
		}
	}

	resp, err := http.Post(ts.URL+"/v1/stream", "application/octet-stream", bytes.NewReader(capture))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !resp.Close {
		t.Errorf("third session: status %d, close %v; want 503 with Connection: close", resp.StatusCode, resp.Close)
	}
	client, server := net.Pipe()
	go func() {
		d.serveConn(context.Background(), server)
		server.Close()
	}()
	go func() {
		client.Write(capture)
	}()
	var trail trailer
	if err := json.NewDecoder(client).Decode(&trail); err != nil || trail.Err == "" {
		t.Errorf("raw-TCP session past the cap: trailer %+v (%v), want an error", trail, err)
	}
	client.Close()

	for _, pw := range writers {
		pw.Close()
	}
	stalled.Wait()
	resp, err = http.Post(ts.URL+"/v1/classify", "application/octet-stream", bytes.NewReader(capture))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("after the stalled sessions end: status %d, want 200", resp.StatusCode)
	}
}

// TestUnknownProtocolListsRegisteredOnce: an unknown -protos entry fails
// with phy.Build's error, which already names the registered protocols;
// the daemon must not append the list a second time.
func TestUnknownProtocolListsRegisteredOnce(t *testing.T) {
	err := run(context.Background(), []string{"-protos", "nope"}, io.Discard)
	if err == nil {
		t.Fatal("-protos nope accepted")
	}
	if n := strings.Count(err.Error(), "registered:"); n != 1 {
		t.Fatalf("error lists the registered protocols %d times, want once: %v", n, err)
	}
}
