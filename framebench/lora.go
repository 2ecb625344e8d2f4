package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"time"

	"hideseek/internal/stream"
)

// loraConns is the number of keep-alive client connections, each a closed
// loop with its own session key.
const loraConns = 2

// loraWorkload is the lora-classify inputs with every request pre-encoded.
type loraWorkload struct {
	caps     []capture
	refs     [][]stream.Verdict
	requests [loraConns][][]byte // per connection, per capture
	inputs   string
}

func setupLoRa(seed int64) (*loraWorkload, error) {
	caps, err := genLoRaCaptures(seed)
	if err != nil {
		return nil, err
	}
	p, err := daemonPipeline("lora")
	if err != nil {
		return nil, err
	}
	w := &loraWorkload{caps: caps, inputs: inputHash(caps, nil)}
	for i, c := range caps {
		ref, err := reference(p, c.Samples)
		if err != nil {
			return nil, err
		}
		if err := matchesLabels(ref, c.Frames); err != nil {
			return nil, fmt.Errorf("lora-classify capture %d reference: %w", i, err)
		}
		w.refs = append(w.refs, ref)
		for k := range loraConns {
			head := fmt.Sprintf("POST /v1/classify?proto=lora&session=bench-lora-%d HTTP/1.1\r\nHost: bench\r\n"+
				"Content-Type: application/octet-stream\r\nContent-Length: %d\r\n\r\n", k, len(c.CF32))
			w.requests[k] = append(w.requests[k], append([]byte(head), c.CF32...))
		}
	}
	return w, nil
}

// classifyCall is one request's record; the body is decoded after timing.
type classifyCall struct {
	capture int
	status  int
	body    []byte
	latency time.Duration
}

// loraRun is what one lora-classify daemon run measured.
type loraRun struct {
	tally      tally
	latencyMS  []float64
	perCapture [][]float64              // round trips by capture, ms
	verdicts   []stream.Verdict         // timed loop
	first      map[int][]stream.Verdict // the first response per capture
	frames     int
	samples    int64
	seconds    float64
}

// cycle is one pass of every connection through the set, each capture at
// its fastest round trip of the run: frames and samples classified and the
// seconds a connection takes. A shared host slows the daemon and the
// clients in stretches of seconds, and how much of a run they cover drifts
// from minute to minute: over two sets of ten runs 25 minutes apart, the
// median round trip moved by 23%. A capture's fastest round trip is
// the one the host disturbed least, so it follows the program rather than
// the neighbours (see README.md).
func (r *loraRun) cycle(w *loraWorkload) (frames int, samples int64, seconds float64) {
	for i, ms := range r.captureFastest() {
		frames += loraConns * len(w.caps[i].Frames)
		samples += loraConns * int64(len(w.caps[i].Samples))
		seconds += ms / 1e3
	}
	return frames, samples, seconds
}

// captureFastest is each capture's fastest round trip, ms.
func (r *loraRun) captureFastest() []float64 {
	out := make([]float64, len(r.perCapture))
	for i, ms := range r.perCapture {
		out[i] = slices.Min(ms)
	}
	return out
}

// run sends every capture once per connection as a warm-up, then runs
// the closed loops for the given time and checks every response.
func (w *loraWorkload) run(addr string, seconds float64) (*loraRun, error) {
	conns := make([]net.Conn, loraConns)
	readers := make([]*bufio.Reader, loraConns)
	for k := range conns {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		defer c.Close()
		conns[k], readers[k] = c, bufio.NewReaderSize(c, 1<<16)
	}
	call := func(k, capIdx int) (classifyCall, error) {
		start := time.Now()
		if _, err := conns[k].Write(w.requests[k][capIdx]); err != nil {
			return classifyCall{}, err
		}
		resp, err := http.ReadResponse(readers[k], nil)
		if err != nil {
			return classifyCall{}, err
		}
		var body bytes.Buffer
		_, err = io.Copy(&body, resp.Body)
		resp.Body.Close()
		if err != nil {
			return classifyCall{}, err
		}
		return classifyCall{capture: capIdx, status: resp.StatusCode, body: body.Bytes(), latency: time.Since(start)}, nil
	}

	runtime.GC() // collect set-up garbage before the clients run
	var warm []classifyCall
	for k := range conns {
		for i := range w.caps {
			c, err := call(k, i)
			if err != nil {
				return nil, fmt.Errorf("warm-up classify: %w", err)
			}
			warm = append(warm, c)
		}
	}

	calls := make([][]classifyCall, loraConns)
	errs := make([]error, loraConns)
	ends := make([]time.Time, loraConns)
	var wg sync.WaitGroup
	t0 := time.Now()
	for k := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := k * len(w.caps) / loraConns; time.Since(t0).Seconds() < seconds; i++ {
				c, err := call(k, i%len(w.caps))
				if err != nil {
					errs[k] = err
					return
				}
				calls[k] = append(calls[k], c)
			}
			ends[k] = time.Now()
		}()
	}
	wg.Wait()
	r := &loraRun{first: map[int][]stream.Verdict{}, perCapture: make([][]float64, len(w.caps))}
	for k := range conns {
		if errs[k] != nil {
			return nil, fmt.Errorf("classify connection %d: %w", k, errs[k])
		}
		r.seconds = max(r.seconds, ends[k].Sub(t0).Seconds())
	}

	check := func(c classifyCall) []stream.Verdict {
		t, got := checkClassify(c.status, c.body, w.refs[c.capture], w.caps[c.capture].Frames)
		r.tally.add(t)
		return got
	}
	for _, c := range warm {
		if got := check(c); r.first[c.capture] == nil {
			r.first[c.capture] = got
		}
	}
	for _, cs := range calls {
		for _, c := range cs {
			got := check(c)
			ms := float64(c.latency.Nanoseconds()) / 1e6
			r.verdicts = append(r.verdicts, got...)
			r.latencyMS = append(r.latencyMS, ms)
			r.perCapture[c.capture] = append(r.perCapture[c.capture], ms)
			r.frames += len(got)
			r.samples += int64(len(w.caps[c.capture].Samples))
		}
	}
	for i, ms := range r.perCapture {
		if len(ms) == 0 {
			return nil, fmt.Errorf("capture %d was never sent in the timed loop; run longer", i)
		}
	}
	return r, nil
}
