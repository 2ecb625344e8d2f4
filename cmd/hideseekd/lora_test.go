package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hideseek/internal/emulation"
	"hideseek/internal/iq"
	"hideseek/internal/lora"
	"hideseek/internal/phy"
	"hideseek/internal/stream"
)

// loraTestCapture renders a cf32 capture holding one authentic and one
// Wi-Lo-emulated LoRa frame.
func loraTestCapture(t *testing.T, seed int64) ([]byte, []bool) {
	t.Helper()
	auth, err := lora.NewTransmitter().TransmitPayload([]byte("hs-lora"))
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

// testDaemonProtos builds a daemon serving zigbee (default) and lora.
func testDaemonProtos(t *testing.T, workers int) (*daemon, *httptest.Server) {
	t.Helper()
	zb, err := phy.Build("zigbee", phy.Options{SyncThreshold: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	lr, err := phy.Build("lora", phy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	engine, err := stream.NewEngine(stream.Config{
		Workers:   workers,
		Pipelines: []*phy.Pipeline{zb, lr},
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

// TestClassifyProtoParam drives ?proto= through /v1/classify: the lora
// session must decode LoRa frames with lora-labeled verdicts, the default
// session must still be zigbee, and an unserved protocol must 400 without
// consuming the body.
func TestClassifyProtoParam(t *testing.T) {
	_, ts := testDaemonProtos(t, 2)

	capture, want := loraTestCapture(t, 9)
	resp, err := http.Post(ts.URL+"/v1/classify?proto=lora", "application/octet-stream", bytes.NewReader(capture))
	if err != nil {
		t.Fatal(err)
	}
	var cr classifyResponse
	err = json.NewDecoder(resp.Body).Decode(&cr)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(cr.Verdicts) != len(want) {
		t.Fatalf("lora classify: %d verdicts, want %d", len(cr.Verdicts), len(want))
	}
	for i, v := range cr.Verdicts {
		if !v.Decided() || v.Attack != want[i] {
			t.Fatalf("lora verdict %d: attack=%v err=%q, want attack=%v", i, v.Attack, v.Err, want[i])
		}
		if v.Proto != "lora" {
			t.Errorf("lora verdict %d labeled %q", i, v.Proto)
		}
		if string(v.PSDU) != "hs-lora" {
			t.Errorf("lora verdict %d payload %q", i, v.PSDU)
		}
	}

	// Default (no ?proto=) stays zigbee.
	zbCapture, zbWant := testCapture(t, 6)
	resp, err = http.Post(ts.URL+"/v1/classify", "application/octet-stream", bytes.NewReader(zbCapture))
	if err != nil {
		t.Fatal(err)
	}
	cr = classifyResponse{}
	err = json.NewDecoder(resp.Body).Decode(&cr)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(cr.Verdicts) != len(zbWant) {
		t.Fatalf("default classify: %d verdicts, want %d", len(cr.Verdicts), len(zbWant))
	}
	for i, v := range cr.Verdicts {
		if v.Proto != "zigbee" {
			t.Errorf("default verdict %d labeled %q, want zigbee", i, v.Proto)
		}
	}

	// Unserved protocol: 400 up front.
	resp, err = http.Post(ts.URL+"/v1/classify?proto=wimax", "application/octet-stream", bytes.NewReader(capture))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unserved proto: status %d, want 400", resp.StatusCode)
	}
}

// TestStreamProtoParam checks /v1/stream honors ?proto=lora end to end.
func TestStreamProtoParam(t *testing.T) {
	_, ts := testDaemonProtos(t, 2)
	capture, want := loraTestCapture(t, 12)
	resp, err := http.Post(ts.URL+"/v1/stream?proto=lora", "application/octet-stream", bytes.NewReader(capture))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	verdicts, trail := readStream(t, sc)
	if trail.Err != "" {
		t.Fatalf("trailer error %q", trail.Err)
	}
	if len(verdicts) != len(want) {
		t.Fatalf("%d verdicts, want %d", len(verdicts), len(want))
	}
	for i, v := range verdicts {
		if v.Attack != want[i] {
			t.Errorf("verdict %d attack=%v, want %v", i, v.Attack, want[i])
		}
	}
}

// TestHealthzListsProtocols checks the served protocol set is visible on
// the health probe.
func TestHealthzListsProtocols(t *testing.T) {
	_, ts := testDaemonProtos(t, 2)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if len(h.Protocols) != 2 || h.Protocols[0] != "zigbee" || h.Protocols[1] != "lora" {
		t.Errorf("healthz protocols %v, want [zigbee lora]", h.Protocols)
	}
}

// TestSniffProto covers the raw-TCP protocol preamble parser.
func TestSniffProto(t *testing.T) {
	for _, tc := range []struct {
		in      string
		proto   string
		rest    string
		wantErr bool
	}{
		{"#HSPROTO lora\nDATA", "lora", "DATA", false},
		{"#HSPROTO zigbee \nX", "zigbee", "X", false},
		{"plain cf32 bytes", "", "plain cf32 bytes", false},
		{"#H", "", "#H", false}, // shorter than the marker: plain stream
		{"#HSPROTO \nX", "", "", true},
		{"#HSPROTO lora", "", "", true}, // unterminated selector line
	} {
		br := bufio.NewReader(strings.NewReader(tc.in))
		proto, err := sniffProto(br)
		if tc.wantErr {
			if err == nil {
				t.Errorf("sniffProto(%q): no error", tc.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("sniffProto(%q): %v", tc.in, err)
			continue
		}
		if proto != tc.proto {
			t.Errorf("sniffProto(%q) = %q, want %q", tc.in, proto, tc.proto)
		}
		rest := make([]byte, len(tc.rest))
		n, _ := br.Read(rest)
		if string(rest[:n]) != tc.rest {
			t.Errorf("sniffProto(%q) left %q, want %q", tc.in, rest[:n], tc.rest)
		}
	}
}
