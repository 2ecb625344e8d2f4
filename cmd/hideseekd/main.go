// Command hideseekd is the online defense service: a daemon that accepts
// captured or live 4 MS/s I/Q streams and runs the streaming detection
// pipeline (internal/stream) over them. One stream.Engine shards
// sessions across -shards independent worker pools (one bounded queue
// each); each session is pinned to one shard by its session key —
// ?session=<key> on HTTP requests, defaulting to the client's host — so
// one client's sessions share a queue and a latency budget. The pipeline
// is protocol-generic (internal/phy): -protos selects which victim PHYs
// the daemon serves (default "zigbee,lora" — ZigBee O-QPSK frame sync +
// constellation-cumulant defense, and LoRa CSS dechirp + off-peak-energy
// defense). Each session binds one protocol: HTTP clients pick with
// ?proto=<name> on /v1/classify and /v1/stream, raw TCP clients with an
// optional "#HSPROTO <name>\n" preamble line; unspecified sessions get
// the first configured protocol.
//
// With -admission each shard runs tiered admission control: under load
// new sessions are degraded (raised sync threshold, tightened in-flight
// budget; their verdicts carry "degraded":true) and past that shed at
// admission — HTTP clients get 503, raw TCP clients an error trailer —
// keeping accepted sessions' latency bounded instead of letting every
// session slowly starve.
//
// With -calib the engine runs the online calibration stage (internal/calib):
// per-protocol session classes track rolling D² distributions, fit the
// authentic/emulated decision boundary from labeled warmup traffic
// (?calib_label=authentic|emulated on /v1/classify and /v1/stream marks a
// session's frames with operator ground truth; ?calib_class=<name> groups
// sessions into a non-default class, named by 1-64 of [A-Za-z0-9_], at
// most 64 besides the protocols' own, else 400), and monitor for drift. GET /v1/calib
// reports every class's threshold, source, fit, and drift status; PUT
// /v1/calib applies operator overrides, clears them, or re-arms warmup.
//
// Endpoints:
//
//	POST /v1/classify   cf32 body in, one JSON document out (all verdicts + stats)
//	POST /v1/stream     cf32 body in, NDJSON out (one verdict per line, stats trailer)
//	GET  /healthz       liveness: per-shard table (load + admission tier), pool
//	                    status, build identity, runtime gauges, rolling
//	                    last-60s/last-2min stage-latency windows, and the
//	                    calibration table when -calib is on
//	GET  /v1/obs        instrument snapshot (JSON; ?format=prometheus for text format)
//	GET  /metrics       Prometheus text exposition (counters, summaries,
//	                    cumulative histograms, windowed quantile gauges,
//	                    per-shard stream.shard<i>.* series)
//	GET  /v1/traces     recent per-frame span traces as NDJSON (?n=max)
//	GET  /v1/calib      online-calibration status per session class
//	PUT  /v1/calib      operator threshold override / clear / re-arm warmup
//	GET  /v1/alerts     SLO rule states (inactive/pending/firing/resolved)
//	                    plus the transition history ring
//	GET  /v1/top        engine-wide heavy-hitter session keys by frames,
//	                    drops, sheds, and summed verdict latency (?k=max)
//
// The daemon evaluates SLO rules continuously (-slo, on by default):
// built-in objectives for verdict latency, drop ratio, shed burn rate,
// calibration drift, and GC pause tail, or a custom rules file via
// -slo-rules (one rule per line, see internal/obs/alert). Rule states
// surface on /v1/alerts, as ALERTS{alertname,severity,state} plus
// hideseek_slo_budget_remaining{rule} on /metrics, and in the shutdown
// manifest. A runtime profiler goroutine feeds go.sched_latency_ns and
// go.gc_pause_ns histograms from runtime/metrics so runtime health is
// alertable like any stream stage.
//
// With -debug-addr the daemon serves net/http/pprof on a SEPARATE mux
// (never on the service listener); bind it to loopback. Capture a CPU
// profile with:
//
//	go tool pprof "http://127.0.0.1:6060/debug/pprof/profile?seconds=10"
//
// With -tcp the daemon also accepts raw TCP connections carrying cf32
// bytes (an SDR pipe, netcat) and answers with NDJSON verdicts on the
// same connection.
//
// Every scanned frame gets a span trace (scan→sync→queue→decode→detect→
// deliver) kept in a bounded in-memory ring (-traces) and, with
// -tracefile, exported as NDJSON; Verdict.trace_id joins a verdict to
// its timeline.
//
// SIGINT/SIGTERM trigger a graceful shutdown: listeners close, in-flight
// sessions drain, the worker pool stops, the trace sink flushes, and
// -manifest (if set) receives a kind=service run manifest that
// cmd/manifestcheck validates.
//
// Usage:
//
//	hideseekd [-addr host:port] [-tcp host:port] [-protos list] [-shards n]
//	          [-admission] [-workers n] [-queue n] [-chunk n] [-pending n]
//	          [-threshold q] [-real] [-sync t] [-deadline d] [-manifest out.json]
//	          [-traces n] [-tracefile out.ndjson]
//	          [-calib] [-calib-warmup n] [-calib-drift-every d]
//	          [-slo] [-slo-rules file] [-slo-every d]
//	          [-debug-addr host:port]
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unicode"

	"hideseek/internal/calib"
	"hideseek/internal/iq"
	"hideseek/internal/obs"
	"hideseek/internal/obs/alert"
	"hideseek/internal/phy"
	"hideseek/internal/stream"
	"hideseek/internal/zigbee"

	// Served victim-PHY plugins register themselves on import.
	_ "hideseek/internal/phy/loraphy"
	_ "hideseek/internal/phy/zigbeephy"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "hideseekd:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, logw io.Writer) error {
	fs := flag.NewFlagSet("hideseekd", flag.ContinueOnError)
	fs.SetOutput(logw)
	addr := fs.String("addr", "127.0.0.1:8473", "HTTP listen address")
	tcpAddr := fs.String("tcp", "", "raw TCP listen address: cf32 in, NDJSON verdicts out (empty = disabled)")
	protos := fs.String("protos", "zigbee,lora", "comma-separated victim protocols to serve (first is the session default)")
	shards := fs.Int("shards", 1, "independent engine shards; sessions pin to shards by session key")
	admission := fs.Bool("admission", false, "tiered admission control per shard: degrade under load, shed past that (503)")
	workers := fs.Int("workers", 0, "decode/detect worker pool width per shard (0 = derived from GOMAXPROCS)")
	queue := fs.Int("queue", 256, "shared frame queue depth; oldest frames drop past this")
	chunk := fs.Int("chunk", 4096, "samples per ingest block")
	pending := fs.Int("pending", 64, "max in-flight frames per session before its reads block")
	threshold := fs.Float64("threshold", 0, "decision threshold Q for every served protocol (0 = per-protocol default)")
	realEnv := fs.Bool("real", false, "real-environment statistics: mean removal + |C40| (Sec. VI-C)")
	syncThr := fs.Float64("sync", 0, fmt.Sprintf("preamble sync correlation threshold for every served protocol (0 = per-protocol default; zigbee's daemon default is %v)", zigbee.EdgeSyncThreshold))
	deadline := fs.Duration("deadline", 30*time.Second, "per-request idle read/write deadline (0 = none)")
	manifest := fs.String("manifest", "", "write a kind=service run manifest here on shutdown")
	traces := fs.Int("traces", 256, "per-frame span traces kept queryable at /v1/traces (0 disables tracing)")
	traceFile := fs.String("tracefile", "", "append every completed span trace as NDJSON here")
	calibOn := fs.Bool("calib", false, "online calibration: fit per-class detection thresholds from labeled warmup traffic, monitor drift (/v1/calib)")
	calibWarmup := fs.Int("calib-warmup", 0, "labeled samples per class before the boundary fits (0 = calibration default)")
	calibDriftEvery := fs.Duration("calib-drift-every", 0, "drift-evaluation throttle (0 = calibration default)")
	sloOn := fs.Bool("slo", true, "evaluate SLO rules continuously; states on /v1/alerts, ALERTS series on /metrics")
	sloRules := fs.String("slo-rules", "", "SLO rules file, one rule per line (empty = built-in defaults; see internal/obs/alert)")
	sloEvery := fs.Duration("slo-every", 0, "SLO evaluation period (0 = 1s)")
	debugAddr := fs.String("debug-addr", "", "serve net/http/pprof on this SEPARATE listener (empty = disabled; bind loopback, e.g. 127.0.0.1:6060)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var sloRuleSet []alert.Rule
	if *sloRules != "" {
		if !*sloOn {
			return fmt.Errorf("-slo-rules requires -slo")
		}
		src, err := os.ReadFile(*sloRules)
		if err != nil {
			return err
		}
		if sloRuleSet, err = alert.ParseRules(string(src)); err != nil {
			return fmt.Errorf("-slo-rules %s: %w", *sloRules, err)
		}
	}

	// teardown releases what run has acquired, newest first: the
	// listeners (the raw-TCP one after its sessions drain), then the SLO
	// engine (no rule evaluates against a half-drained registry) and the
	// profiler, then the engine's pools, then the tracer and its sink, so
	// no frame finishes a trace after the sink closes. Every exit runs it
	// once; a clean shutdown runs it before the manifest, so the
	// profiler's final drain lands in the manifest's runtime histograms.
	var undo []func()
	teardown := func() {
		for i := len(undo) - 1; i >= 0; i-- {
			undo[i]()
		}
		undo = nil
	}
	defer teardown()

	var tracer *obs.Tracer
	var traceSink *os.File
	if *traceFile != "" && *traces == 0 {
		return fmt.Errorf("-tracefile requires -traces > 0")
	}
	if *traces > 0 {
		tcfg := obs.TracerConfig{Ring: *traces}
		if *traceFile != "" {
			f, err := os.Create(*traceFile)
			if err != nil {
				return err
			}
			traceSink = f
			tcfg.Sink = f
		}
		tracer = obs.NewTracer(tcfg)
	}
	undo = append(undo, func() {
		if err := tracer.Close(); err != nil {
			fmt.Fprintf(logw, "hideseekd: trace sink: %v\n", err)
		}
		if traceSink != nil {
			traceSink.Close()
		}
	})

	var pipelines []*phy.Pipeline
	for _, name := range strings.Split(*protos, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		opts := phy.Options{SyncThreshold: *syncThr, Threshold: *threshold, RealEnv: *realEnv}
		if opts.SyncThreshold == 0 && name == "zigbee" {
			// The daemon has always run zigbee sync at the edge threshold
			// (below the receiver's own 0.5 default) to catch weak
			// preambles; keep that operating point unless -sync overrides it.
			opts.SyncThreshold = zigbee.EdgeSyncThreshold
		}
		p, err := phy.Build(name, opts)
		if err != nil {
			return fmt.Errorf("-protos: %w", err)
		}
		pipelines = append(pipelines, p)
	}
	if len(pipelines) == 0 {
		return fmt.Errorf("-protos %q selects no protocols", *protos)
	}

	var calCfg *calib.Config
	if *calibOn {
		calCfg = &calib.Config{WarmupPerClass: *calibWarmup, DriftCheckEvery: *calibDriftEvery}
	} else if *calibWarmup != 0 || *calibDriftEvery != 0 {
		return fmt.Errorf("-calib-warmup / -calib-drift-every require -calib")
	}

	engine, err := stream.NewEngine(stream.Config{
		ChunkSize:   *chunk,
		Workers:     *workers,
		QueueDepth:  *queue,
		MaxPending:  *pending,
		Pipelines:   pipelines,
		Tracer:      tracer,
		Calibration: calCfg,
		Shards:      *shards,
		Admission:   *admission,
	})
	if err != nil {
		return err
	}
	undo = append(undo, engine.Close)

	// The runtime profiler always runs: go.sched_latency_ns and
	// go.gc_pause_ns are first-class histograms whether or not SLO rules
	// read them.
	profiler := obs.StartRuntimeProfiler(nil, 0)
	undo = append(undo, profiler.Stop)

	var alerts *alert.Engine
	if *sloOn {
		alerts, err = alert.New(alert.Config{Rules: sloRuleSet, Every: *sloEvery})
		if err != nil {
			return err
		}
		alerts.Start()
		undo = append(undo, alerts.Stop)
	}

	d := newDaemon(engine, *deadline)
	d.tracer = tracer
	d.alerts = alerts

	sigCtx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	httpLn, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	undo = append(undo, func() { httpLn.Close() })

	if *debugAddr != "" {
		// pprof lives on its own mux and listener so profiling handlers are
		// never reachable through the service address.
		debugLn, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return fmt.Errorf("-debug-addr: %w", err)
		}
		undo = append(undo, func() { debugLn.Close() })
		dbgMux := http.NewServeMux()
		dbgMux.HandleFunc("/debug/pprof/", pprof.Index)
		dbgMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dbgMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dbgMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dbgMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		fmt.Fprintf(logw, "hideseekd: pprof on http://%s/debug/pprof/\n", debugLn.Addr())
		go http.Serve(debugLn, dbgMux)
	}
	fmt.Fprintf(logw, "hideseekd: serving protocols %v on %d shard(s), admission control %v\n",
		engine.Protocols(), engine.Shards(), engine.AdmissionEnabled())
	srv := &http.Server{
		Handler: d.routes(),
		// Request contexts descend from the signal context, so streaming
		// handlers observe shutdown and drain instead of running forever.
		BaseContext: func(net.Listener) context.Context { return sigCtx },
	}
	fmt.Fprintf(logw, "hideseekd: listening on http://%s\n", httpLn.Addr())

	if *tcpAddr != "" {
		tcpLn, err := net.Listen("tcp", *tcpAddr)
		if err != nil {
			return err
		}
		var conns sync.WaitGroup
		undo = append(undo, func() {
			tcpLn.Close()
			conns.Wait()
		})
		fmt.Fprintf(logw, "hideseekd: raw tcp on %s\n", tcpLn.Addr())
		go d.serveTCP(sigCtx, tcpLn, &conns)
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(httpLn) }()

	var serveErr error
	select {
	case serveErr = <-errc:
	case <-sigCtx.Done():
		fmt.Fprintln(logw, "hideseekd: shutting down")
		graceCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(graceCtx); err != nil {
			fmt.Fprintf(logw, "hideseekd: http shutdown: %v\n", err)
		}
		<-errc // Serve has returned http.ErrServerClosed
	}
	// Teardown waits for the raw-TCP sessions before the pools stop and
	// the trace sink flushes: no frame finishes a trace after this point.
	teardown()
	if serveErr != nil {
		return serveErr
	}

	if *manifest != "" {
		m := obs.NewManifest("hideseekd", 0, engine.Workers())
		m.Kind = obs.KindService
		m.Protocols = engine.Protocols()
		m.WallMS = float64(time.Since(d.start).Microseconds()) / 1000
		m.Snapshot = d.snap()
		if err := m.Validate(); err != nil {
			return fmt.Errorf("shutdown manifest invalid: %w", err)
		}
		if err := m.WriteFile(*manifest); err != nil {
			return err
		}
		fmt.Fprintf(logw, "hideseekd: manifest written to %s\n", *manifest)
	}
	return nil
}

// daemon binds the sharded engine to the protocol handlers.
type daemon struct {
	engine   *stream.Engine
	tracer   *obs.Tracer   // nil when tracing is off
	alerts   *alert.Engine // nil when -slo is off
	deadline time.Duration
	start    time.Time
}

// snap is the daemon's snapshot: the registry snapshot plus the SLO
// rule states, so /metrics, /v1/obs, and the shutdown manifest all see
// the same alert view.
func (d *daemon) snap() obs.Snapshot {
	s := obs.Snap()
	if d.alerts != nil {
		s.Alerts = d.alerts.Samples()
	}
	return s
}

func newDaemon(e *stream.Engine, deadline time.Duration) *daemon {
	return &daemon{engine: e, deadline: deadline, start: time.Now()}
}

func (d *daemon) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/classify", d.handleClassify)
	mux.HandleFunc("/v1/stream", d.handleStream)
	mux.HandleFunc("/v1/obs", d.handleObs)
	mux.HandleFunc("/v1/traces", d.handleTraces)
	mux.HandleFunc("/v1/calib", d.handleCalib)
	mux.HandleFunc("/v1/alerts", d.handleAlerts)
	mux.HandleFunc("/v1/top", d.handleTop)
	mux.HandleFunc("/metrics", d.handleMetrics)
	mux.HandleFunc("/healthz", d.handleHealth)
	return mux
}

// classifyResponse is the /v1/classify reply: every verdict in stream
// order plus the session stats.
type classifyResponse struct {
	Verdicts []stream.Verdict `json:"verdicts"`
	Stats    stream.Stats     `json:"stats"`
}

// trailer is the final NDJSON record of a streaming response; its "stats"
// key distinguishes it from verdict records (which always carry "seq").
type trailer struct {
	Stats *stream.Stats `json:"stats,omitempty"`
	Err   string        `json:"error,omitempty"`
}

// sessionProto resolves a request's ?proto= selector against the served
// set, so protocol typos fail with 400 before any samples are consumed
// ("" = the engine default).
func (d *daemon) sessionProto(r *http.Request) (string, error) {
	proto := r.URL.Query().Get("proto")
	if proto == "" {
		return "", nil
	}
	for _, served := range d.engine.Protocols() {
		if proto == served {
			return proto, nil
		}
	}
	return "", fmt.Errorf("protocol %q not served (have %v)", proto, d.engine.Protocols())
}

// calibOptions resolves a request's calibration selectors: operator
// ground truth for warmup traffic (?calib_label=authentic|emulated) and a
// non-default session class (?calib_class=<name>). Both are no-ops when
// the daemon runs without -calib, matching the stream package's contract.
func calibOptions(r *http.Request) ([]stream.SessionOption, error) {
	var opts []stream.SessionOption
	if s := r.URL.Query().Get("calib_label"); s != "" {
		l, err := calib.ParseLabel(s)
		if err != nil {
			return nil, err
		}
		opts = append(opts, stream.WithWarmupLabel(l))
	}
	if class := r.URL.Query().Get("calib_class"); class != "" {
		opts = append(opts, stream.WithCalibClass(class))
	}
	return opts, nil
}

// sessionKey picks a request's shard-affinity key: an explicit
// ?session=<key> wins; otherwise the client host, so one client's
// sessions land on one shard and share its queue and latency budget.
func sessionKey(r *http.Request) string {
	if key := r.URL.Query().Get("session"); key != "" {
		return key
	}
	return hostOf(r.RemoteAddr)
}

// hostOf strips the port from a remote address ("" stays "" — a keyless
// session spreads round-robin).
func hostOf(addr string) string {
	if host, _, err := net.SplitHostPort(addr); err == nil {
		return host
	}
	return addr
}

// sessionStatus maps a Process error to an HTTP status: shed-at-admission
// is backpressure (503, retry later), everything else a client error.
func sessionStatus(err error) int {
	if errors.Is(err, stream.ErrShed) {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

func (d *daemon) handleClassify(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST a cf32 capture", http.StatusMethodNotAllowed)
		return
	}
	proto, err := d.sessionProto(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	calOpts, err := calibOptions(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ctx := r.Context()
	rc := http.NewResponseController(w)
	// Unblock a pending body read when the daemon shuts down mid-upload.
	stopAfter := context.AfterFunc(ctx, func() { rc.SetReadDeadline(time.Now()) })
	defer stopAfter()
	src := d.idleSource(ctx, r.Body, rc.SetReadDeadline)
	verdicts := make([]stream.Verdict, 0)
	opts := append([]stream.SessionOption{stream.WithProto(proto), stream.WithSessionKey(sessionKey(r))}, calOpts...)
	stats, err := d.engine.Process(ctx, src, func(v stream.Verdict) {
		verdicts = append(verdicts, v)
	}, opts...)
	if err != nil {
		http.Error(w, err.Error(), sessionStatus(err))
		return
	}
	if d.deadline > 0 {
		rc.SetWriteDeadline(time.Now().Add(d.deadline))
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(classifyResponse{Verdicts: verdicts, Stats: stats})
}

func (d *daemon) handleStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST a cf32 stream", http.StatusMethodNotAllowed)
		return
	}
	proto, err := d.sessionProto(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	calOpts, err := calibOptions(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	rc := http.NewResponseController(w)
	// Full duplex lets us emit verdicts while the client is still sending
	// samples (best effort: HTTP/2 already behaves this way).
	_ = rc.EnableFullDuplex()
	enc := json.NewEncoder(w)
	// The 200 goes out with the first verdict (or the trailer): admission
	// rejects a session before anything is emitted, and that must still be
	// able to surface as a 503 status line.
	var headerOnce sync.Once
	writeHeader := func() {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
	}

	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	// Unblock pending body reads and response writes when the daemon shuts
	// down (or the session is cancelled) mid-stream.
	stopAfter := context.AfterFunc(ctx, func() {
		rc.SetReadDeadline(time.Now())
		rc.SetWriteDeadline(time.Now())
	})
	defer stopAfter()
	src := d.idleSource(ctx, r.Body, rc.SetReadDeadline)
	stats, err := d.engine.Process(ctx, src, func(v stream.Verdict) {
		headerOnce.Do(writeHeader)
		// A write deadline per verdict: a client that streams samples but
		// never reads responses errors the session instead of blocking its
		// delivery goroutine (and the session's drain) forever.
		if d.deadline > 0 {
			rc.SetWriteDeadline(time.Now().Add(d.deadline))
		}
		if encErr := enc.Encode(v); encErr != nil {
			cancel()
			return
		}
		rc.Flush()
	}, append([]stream.SessionOption{stream.WithProto(proto), stream.WithSessionKey(sessionKey(r))}, calOpts...)...)
	if errors.Is(err, stream.ErrShed) {
		// Rejected at admission: no verdict was emitted, the header is
		// still ours to set. The body was never read (admission decides
		// before the first sample) and full duplex is on, so close the
		// connection rather than letting the server try to reuse it while
		// the client is still mid-upload.
		w.Header().Set("Connection", "close")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	headerOnce.Do(writeHeader)
	if d.deadline > 0 {
		rc.SetWriteDeadline(time.Now().Add(d.deadline))
	}
	t := trailer{Stats: &stats}
	if err != nil {
		t.Err = err.Error()
	}
	enc.Encode(t)
	rc.Flush()
}

func (d *daemon) handleObs(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prometheus" {
		d.handleMetrics(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(d.snap())
}

// handleMetrics is the Prometheus scrape endpoint: the same snapshot
// /v1/obs serves, rendered in the text exposition format.
func (d *daemon) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.PrometheusContentType)
	obs.WritePrometheus(w, d.snap())
}

// alertsResponse is the GET /v1/alerts reply.
type alertsResponse struct {
	Enabled bool               `json:"enabled"`
	Rules   []alert.RuleStatus `json:"rules,omitempty"`
	History []alert.Transition `json:"history,omitempty"`
}

// handleAlerts reports every SLO rule's state machine position and the
// recent transition history.
func (d *daemon) handleAlerts(w http.ResponseWriter, r *http.Request) {
	resp := alertsResponse{Enabled: d.alerts != nil}
	if d.alerts != nil {
		st := d.alerts.Status()
		resp.Rules = st.Rules
		resp.History = st.History
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// handleTop reports the engine-wide heavy-hitter session keys (?k bounds
// entries per dimension; default 10).
func (d *daemon) handleTop(w http.ResponseWriter, r *http.Request) {
	k := 10
	if s := r.URL.Query().Get("k"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 1 {
			http.Error(w, "k must be a positive integer", http.StatusBadRequest)
			return
		}
		k = v
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(d.engine.Top(k))
}

// handleTraces streams the most recent completed span traces as NDJSON
// (?n bounds the count; default the whole ring).
func (d *daemon) handleTraces(w http.ResponseWriter, r *http.Request) {
	if d.tracer == nil {
		http.Error(w, "tracing disabled (-traces 0)", http.StatusNotFound)
		return
	}
	max := 0
	if s := r.URL.Query().Get("n"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 1 {
			http.Error(w, "n must be a positive integer", http.StatusBadRequest)
			return
		}
		max = v
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	d.tracer.WriteRecent(w, max)
}

// calibStatus is the GET /v1/calib reply.
type calibStatus struct {
	Enabled bool           `json:"enabled"`
	Classes []calib.Status `json:"classes,omitempty"`
}

// calibUpdate is the PUT /v1/calib body. Operations compose in precedence
// order: an override is applied first, then clear_override, then rearm —
// but a typical call carries exactly one.
type calibUpdate struct {
	// Class names the session class to operate on (required).
	Class string `json:"class"`
	// Threshold sets an operator override (outranks fitted and default).
	Threshold *float64 `json:"threshold,omitempty"`
	// ClearOverride drops the operator override.
	ClearOverride bool `json:"clear_override,omitempty"`
	// Rearm drops the fitted boundary and restarts warmup.
	Rearm bool `json:"rearm,omitempty"`
}

// handleCalib is the online-calibration admin surface: GET reports every
// session class's threshold/fit/drift status, PUT applies operator
// operations to one class.
func (d *daemon) handleCalib(w http.ResponseWriter, r *http.Request) {
	mgr := d.engine.Calibration()
	switch r.Method {
	case http.MethodGet:
		st := calibStatus{Enabled: mgr != nil}
		if mgr != nil {
			st.Classes = mgr.Status()
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(st)
	case http.MethodPut:
		if mgr == nil {
			http.Error(w, "online calibration disabled (start with -calib)", http.StatusNotFound)
			return
		}
		var up calibUpdate
		if err := json.NewDecoder(r.Body).Decode(&up); err != nil {
			http.Error(w, "bad body: "+err.Error(), http.StatusBadRequest)
			return
		}
		if up.Class == "" {
			http.Error(w, "class is required", http.StatusBadRequest)
			return
		}
		cal, ok := mgr.Lookup(up.Class)
		if !ok {
			http.Error(w, fmt.Sprintf("unknown calibration class %q (classes appear with their first session)", up.Class), http.StatusNotFound)
			return
		}
		if up.Threshold == nil && !up.ClearOverride && !up.Rearm {
			http.Error(w, "no operation: set threshold, clear_override, or rearm", http.StatusBadRequest)
			return
		}
		if up.Threshold != nil {
			if err := cal.SetOverride(*up.Threshold); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
		}
		if up.ClearOverride {
			cal.ClearOverride()
		}
		if up.Rearm {
			cal.Rearm()
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(cal.Status())
	default:
		http.Error(w, "GET for status, PUT for operator operations", http.StatusMethodNotAllowed)
	}
}

// health is the /healthz document: liveness, engine state (per-shard load
// and admission tier), build identity, runtime gauges, and the rolling
// per-stage latency windows — enough to tell what the service is and how
// it is doing right now from one probe.
type health struct {
	Status         string                       `json:"status"`
	UptimeMS       float64                      `json:"uptime_ms"`
	Protocols      []string                     `json:"protocols"`
	Shards         int                          `json:"shards"`
	Admission      bool                         `json:"admission"`
	Workers        int                          `json:"workers"`
	ActiveSessions int                          `json:"active_sessions"`
	QueueDepth     int                          `json:"queue_depth"`
	ShardTable     []stream.ShardStatus         `json:"shard_table"`
	Calibration    []calib.Status               `json:"calibration,omitempty"`
	Build          obs.BuildStats               `json:"build"`
	Runtime        obs.RuntimeStats             `json:"runtime"`
	Windows        map[string]obs.WindowedStats `json:"windows"`
}

// healthWindows names the histograms whose rolling windows /healthz
// inlines: the per-frame stage latencies and the shared queue depth.
var healthWindows = []string{
	"stream.scan_ns", "stream.decode_ns", "stream.detect_ns", "stream.queue_depth",
}

func (d *daemon) handleHealth(w http.ResponseWriter, r *http.Request) {
	snap := obs.Snap()
	windows := make(map[string]obs.WindowedStats, len(healthWindows))
	for _, name := range healthWindows {
		if ws, ok := snap.Windows[name]; ok {
			windows[name] = ws
		}
	}
	h := health{
		Status:         "ok",
		UptimeMS:       float64(time.Since(d.start).Microseconds()) / 1000,
		Protocols:      d.engine.Protocols(),
		Shards:         d.engine.Shards(),
		Admission:      d.engine.AdmissionEnabled(),
		Workers:        d.engine.Workers(),
		ActiveSessions: d.engine.ActiveSessions(),
		QueueDepth:     d.engine.QueueDepth(),
		ShardTable:     d.engine.ShardTable(),
		Build:          obs.ReadBuild(),
		Runtime:        snap.Runtime,
		Windows:        windows,
	}
	if mgr := d.engine.Calibration(); mgr != nil {
		h.Calibration = mgr.Status()
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(h)
}

// serveTCP accepts raw connections until the listener closes.
func (d *daemon) serveTCP(ctx context.Context, ln net.Listener, conns *sync.WaitGroup) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		conns.Add(1)
		go func() {
			defer conns.Done()
			defer conn.Close()
			d.serveConn(ctx, conn)
		}()
	}
}

// protoPreamble is the optional first line of a raw TCP session selecting
// its protocol; everything after the newline is cf32 samples.
const protoPreamble = "#HSPROTO "

// protoNameMax bounds the protocol name in a selector line; registry
// names are a few bytes.
const protoNameMax = 32

// sniffProto peeks at the head of a raw TCP stream for a
// "#HSPROTO <name>\n" selector line. Without one the stream is untouched
// cf32 and the session runs the engine default (the marker bytes cannot
// open a plain stream by accident without also being consumed here). The
// line is read within br's buffer, so a peer that never ends it costs no
// memory beyond that buffer: an over-long line is an error.
func sniffProto(br *bufio.Reader) (string, error) {
	head, err := br.Peek(len(protoPreamble))
	if err != nil || !bytes.Equal(head, []byte(protoPreamble)) {
		return "", nil // short or markerless stream: plain cf32
	}
	line, err := br.ReadSlice('\n')
	if errors.Is(err, bufio.ErrBufferFull) {
		return "", fmt.Errorf("%q line longer than %d bytes", protoPreamble, br.Size())
	}
	if err != nil {
		return "", fmt.Errorf("unterminated %q line", protoPreamble)
	}
	name := bytes.TrimSpace(line[len(protoPreamble):])
	switch {
	case len(name) == 0:
		return "", fmt.Errorf("empty protocol in %q line", protoPreamble)
	case len(name) > protoNameMax:
		return "", fmt.Errorf("protocol name in %q line longer than %d bytes", protoPreamble, protoNameMax)
	case bytes.ContainsFunc(name, unicode.IsSpace):
		return "", fmt.Errorf("protocol name %q contains whitespace", name)
	}
	return string(name), nil
}

// serveConn runs one raw-TCP session: an optional "#HSPROTO <name>\n"
// selector line, cf32 bytes in, NDJSON verdicts out, a stats trailer,
// then close.
func (d *daemon) serveConn(ctx context.Context, conn net.Conn) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	stopAfter := context.AfterFunc(ctx, func() {
		conn.SetReadDeadline(time.Now())
		conn.SetWriteDeadline(time.Now())
	})
	defer stopAfter()
	enc := json.NewEncoder(conn)
	if d.deadline > 0 {
		conn.SetReadDeadline(time.Now().Add(d.deadline))
	}
	br := bufio.NewReader(conn)
	proto, err := sniffProto(br)
	if err != nil {
		enc.Encode(trailer{Err: err.Error()})
		return
	}
	src := d.idleSource(ctx, br, conn.SetReadDeadline)
	stats, err := d.engine.Process(ctx, src, func(v stream.Verdict) {
		// Bound every verdict write so a peer that stops reading errors the
		// session rather than wedging its delivery goroutine.
		if d.deadline > 0 {
			conn.SetWriteDeadline(time.Now().Add(d.deadline))
		}
		if encErr := enc.Encode(v); encErr != nil {
			cancel()
		}
	}, stream.WithProto(proto), stream.WithSessionKey(hostOf(conn.RemoteAddr().String())))
	if d.deadline > 0 {
		conn.SetWriteDeadline(time.Now().Add(d.deadline))
	}
	t := trailer{Stats: &stats}
	if err != nil {
		t.Err = err.Error()
	}
	enc.Encode(t)
}

// idleSource reads cf32 samples from r. Before every block it fails once
// ctx is done and pushes the read deadline, through setRead, the
// daemon's idle deadline into the future, so a stalled client cannot
// hold a session (and its MaxPending budget) open forever while an
// actively uploading one may take as long as it needs.
func (d *daemon) idleSource(ctx context.Context, r io.Reader, setRead func(time.Time) error) stream.Source {
	return &deadlineSource{src: iq.NewReaderCF32(r), ctx: ctx, idle: d.deadline, setRead: setRead}
}

// deadlineSource is idleSource's reader.
type deadlineSource struct {
	src     stream.Source
	ctx     context.Context
	idle    time.Duration // 0 = no deadline
	setRead func(time.Time) error
}

func (s *deadlineSource) ReadBlock(dst []complex128) (int, error) {
	if err := s.ctx.Err(); err != nil {
		return 0, err
	}
	if s.idle > 0 {
		if err := s.setRead(time.Now().Add(s.idle)); err != nil {
			return 0, err
		}
	}
	return s.src.ReadBlock(dst)
}
