package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"slices"
	"time"

	"hideseek/internal/phy"
	"hideseek/internal/stream"

	// The served victim-PHY plugins register themselves on import.
	_ "hideseek/internal/phy/loraphy"
	_ "hideseek/internal/phy/zigbeephy"
)

// zbPacedMSps is the paced phase's offered rate in MS/s: a quarter of one
// 4 MS/s radio feed, well below the single-session capacity (about
// 6.5 MS/s flat out on a 2-vCPU x86 host).
const zbPacedMSps = 1.0

// zbPacedShare is the paced phase's share of the run; the flat-out phase
// gets the rest. On a small VM the host stalls the vCPUs for ~10 ms a few
// times a second, and each stall delays a paced frame; a short paced
// phase (about 200 frames in a 20 s run) keeps the stalled frames fewer
// than the ten samples the latency tail leaves beyond it.
const zbPacedShare = 0.125

// Send units: the paced phase writes one small chunk per due time, the
// flat-out phase large ones.
const (
	zbPacedUnit = 1024
	zbFlatUnit  = 16384
)

// loadgenLateBoundMS is the benchmark's bound on how late the paced sender
// may run (p99 over its writes); past it the run is invalid. A bare sleep
// loop on an idle 2-vCPU VM already runs 2.5-3.5 ms late at p99.
const loadgenLateBoundMS = 20.0

// zigbeeWorkload is the zigbee-stream inputs, encoded once at set-up.
type zigbeeWorkload struct {
	block  capture
	ref    blockRef
	paced  chunkedBody
	flat   chunkedBody
	inputs string // input hash
}

// chunkedBody is one block pre-encoded as HTTP/1.1 chunks of unit
// samples; ends[i] is one past the last byte of chunk i and samples[i]
// one past its last sample.
type chunkedBody struct {
	bytes   []byte
	ends    []int
	samples []int
}

func encodeChunked(cf32 []byte, unit int) chunkedBody {
	var b chunkedBody
	for off := 0; off < len(cf32); off += unit * 8 {
		end := min(off+unit*8, len(cf32))
		b.bytes = fmt.Appendf(b.bytes, "%x\r\n", end-off)
		b.bytes = append(b.bytes, cf32[off:end]...)
		b.bytes = append(b.bytes, "\r\n"...)
		b.ends = append(b.ends, len(b.bytes))
		b.samples = append(b.samples, end/8)
	}
	return b
}

// daemonPipeline builds a protocol's pipeline exactly as hideseekd does
// with default flags (zigbee sync at 0.3, everything else default).
func daemonPipeline(proto string) (*phy.Pipeline, error) {
	opts := phy.Options{}
	if proto == "zigbee" {
		opts.SyncThreshold = 0.3
	}
	return phy.Build(proto, opts)
}

func setupZigbee(seed int64) (*zigbeeWorkload, error) {
	block, err := genZigbeeBlock(seed)
	if err != nil {
		return nil, err
	}
	p, err := daemonPipeline("zigbee")
	if err != nil {
		return nil, err
	}
	ref, err := blockReference(p, block)
	if err != nil {
		return nil, fmt.Errorf("zigbee-stream reference: %w", err)
	}
	return &zigbeeWorkload{
		block:  block,
		ref:    ref,
		paced:  encodeChunked(block.CF32, zbPacedUnit),
		flat:   encodeChunked(block.CF32, zbFlatUnit),
		inputs: inputHash([]capture{block}, nil),
	}, nil
}

// streamSession is one raw HTTP/1.1 POST /v1/stream: the sender writes
// pre-encoded chunks on the connection while a reader goroutine records
// every NDJSON line with its arrival time. Lines are decoded only after
// the timed phase.
type streamSession struct {
	conn  net.Conn
	done  chan error
	arena []byte
	lines [][2]int // arena spans
	at    []time.Time
}

func openStream(addr, query string) (*streamSession, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	head := "POST /v1/stream?" + query + " HTTP/1.1\r\nHost: " + addr +
		"\r\nContent-Type: application/octet-stream\r\nTransfer-Encoding: chunked\r\n\r\n"
	if _, err := io.WriteString(conn, head); err != nil {
		conn.Close()
		return nil, err
	}
	s := &streamSession{conn: conn, done: make(chan error, 1), arena: make([]byte, 0, 1<<20)}
	go func() { s.done <- s.read() }()
	return s, nil
}

func (s *streamSession) read() error {
	resp, err := http.ReadResponse(bufio.NewReaderSize(s.conn, 1<<16), nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/v1/stream: HTTP %d", resp.StatusCode)
	}
	br := bufio.NewReaderSize(resp.Body, 1<<16)
	for {
		line, err := br.ReadSlice('\n')
		if len(line) > 0 {
			s.at = append(s.at, time.Now())
			s.lines = append(s.lines, [2]int{len(s.arena), len(s.arena) + len(line)})
			s.arena = append(s.arena, line...)
		}
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// finish ends the request body, waits for the response to end and closes
// the connection.
func (s *streamSession) finish() error {
	_, werr := io.WriteString(s.conn, "0\r\n\r\n")
	var rerr error
	select {
	case rerr = <-s.done:
	case <-time.After(60 * time.Second):
		rerr = fmt.Errorf("/v1/stream response did not end within 60s")
	}
	s.conn.Close()
	if rerr == nil {
		return werr
	}
	return rerr
}

func (s *streamSession) lineBytes() [][]byte {
	out := make([][]byte, len(s.lines))
	for i, l := range s.lines {
		out[i] = s.arena[l[0]:l[1]]
	}
	return out
}

// zigbeeRun is what one zigbee-stream daemon run measured.
type zigbeeRun struct {
	tally        tally
	latencyMS    []float64        // paced phase, per frame
	pacedVerdict []stream.Verdict // paced phase, decoded after timing
	lateMS       []float64        // paced sender lateness per write
	flatFrames   int
	flatSamples  int64
	flatSeconds  float64
	flatWindowS  []float64 // flat-out phase, seconds per zbWindowBlocks blocks
}

// zbWindowBlocks is how many blocks of verdicts make one flat-out window
// (about 0.4 s on a 2-vCPU host).
const zbWindowBlocks = 8

// flatRate is the flat-out phase's frames and samples per second in its
// fastest window. A shared host slows the daemon and the sender in
// stretches of seconds, and how much of a run they cover drifts from minute
// to minute; the fastest window is the one the host disturbed least, so it
// follows the program rather than the neighbours (see README.md).
func (r *zigbeeRun) flatRate(w *zigbeeWorkload) (framesPerS, samplesPerS float64) {
	s := slices.Min(r.flatWindowS)
	return zbWindowBlocks * float64(len(w.ref.labels)) / s, zbWindowBlocks * float64(len(w.block.Samples)) / s
}

// runZigbee streams the block through the daemon: a one-block warm-up
// session, the paced phase and the flat-out phase, each on a fresh
// connection, then checks every verdict.
func (w *zigbeeWorkload) run(addr string, seconds float64) (*zigbeeRun, error) {
	const query = "proto=zigbee&session=bench-zigbee"
	r := &zigbeeRun{}
	blockLen := len(w.block.Samples)
	runtime.GC() // collect set-up garbage before the sender runs

	warm, err := openStream(addr, query)
	if err != nil {
		return nil, err
	}
	if _, err := warm.conn.Write(w.flat.bytes); err != nil {
		return nil, err
	}
	if err := warm.finish(); err != nil {
		return nil, err
	}
	t, _ := checkStreamLines(warm.lineBytes(), w.ref, 1)
	r.tally.add(t)

	// Paced: open loop at zbPacedMSps, whole blocks, each chunk written
	// when its last sample is due.
	blocks := max(1, int(seconds*zbPacedShare*zbPacedMSps*1e6/float64(blockLen)+0.5))
	paced, err := openStream(addr, query)
	if err != nil {
		return nil, err
	}
	nsPerSample := 1e3 / zbPacedMSps
	due := func(sample int) time.Duration { return time.Duration(float64(sample) * nsPerSample) }
	t0 := time.Now()
	for b := range blocks {
		prev := 0
		for i, end := range w.paced.ends {
			at := t0.Add(due(b*blockLen + w.paced.samples[i]))
			if d := time.Until(at); d > 0 {
				time.Sleep(d)
			}
			r.lateMS = append(r.lateMS, float64(time.Since(at).Nanoseconds())/1e6)
			if _, err := paced.conn.Write(w.paced.bytes[prev:end]); err != nil {
				return nil, err
			}
			prev = end
		}
	}
	if err := paced.finish(); err != nil {
		return nil, err
	}
	t, got := checkStreamLines(paced.lineBytes(), w.ref, blocks)
	r.tally.add(t)
	r.pacedVerdict = got
	for i := range min(len(got), len(paced.at)) {
		label := w.ref.labels[i%len(w.ref.labels)]
		lastDue := t0.Add(due((i/len(w.ref.labels))*blockLen + label.End))
		r.latencyMS = append(r.latencyMS, float64(paced.at[i].Sub(lastDue).Nanoseconds())/1e6)
	}

	// Flat out: whole blocks back to back until the phase time is up; TCP
	// backpressure and the daemon's MaxPending close the loop.
	flat, err := openStream(addr, query)
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	sent := 0
	for sent == 0 || time.Since(t0).Seconds() < seconds*(1-zbPacedShare) {
		if _, err := flat.conn.Write(w.flat.bytes); err != nil {
			return nil, err
		}
		sent++
	}
	if err := flat.finish(); err != nil {
		return nil, err
	}
	if len(flat.at) == 0 {
		return nil, fmt.Errorf("flat-out session returned nothing")
	}
	r.flatSeconds = flat.at[len(flat.at)-1].Sub(t0).Seconds()
	r.flatSamples = int64(sent) * int64(blockLen)
	t, got = checkStreamLines(flat.lineBytes(), w.ref, sent)
	r.tally.add(t)
	r.flatFrames = len(got)
	// Window edges are the arrivals of each block's last verdict, from the
	// first block's on, so the pipeline's fill time is left out.
	perBlock := len(w.ref.labels)
	for end := perBlock - 1 + zbWindowBlocks*perBlock; end < len(flat.at); end += zbWindowBlocks * perBlock {
		r.flatWindowS = append(r.flatWindowS, flat.at[end].Sub(flat.at[end-zbWindowBlocks*perBlock]).Seconds())
	}
	if len(r.flatWindowS) == 0 {
		return nil, fmt.Errorf("flat-out phase returned fewer than %d blocks", zbWindowBlocks+1)
	}
	return r, nil
}
