package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hideseek/internal/emulation"
	"hideseek/internal/iq"
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
	ts := httptest.NewServer(d.routes())
	t.Cleanup(func() {
		ts.Close()
		engine.Close()
	})
	return d, ts
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

// TestAdmissionShedsWith503: with admission enabled and the latency
// thresholds set to one nanosecond, the first session (cold shard, empty
// latency window) is served normally; once it has scanned frames the
// shard's windowed scan p95 trips both tiers and the next session on the
// same shard is shed — /v1/classify and /v1/stream must answer 503, not
// a half-open NDJSON stream.
func TestAdmissionShedsWith503(t *testing.T) {
	engine, err := stream.NewEngine(stream.Config{
		Workers:   2,
		Pipelines: zigbeePipelines(t),
		Admission: stream.AdmissionConfig{
			Enabled:          true,
			DegradeScanP95NS: 1, ShedScanP95NS: 1,
		},
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

	capture, _ := testCapture(t, 23)
	// Warm the shard's latency window. Instruments are name-registered and
	// process-global, so an earlier test in this binary may already have
	// heated shard 0's scan histogram — then this request itself sheds,
	// which is fine: either way the follow-ups below must see 503.
	warm, err := http.Post(ts.URL+"/v1/classify?session=hot-client", "application/octet-stream", bytes.NewReader(capture))
	if err != nil {
		t.Fatal(err)
	}
	warm.Body.Close()
	if warm.StatusCode != http.StatusOK && warm.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("warming classify: status %d, want 200 or 503", warm.StatusCode)
	}
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
