package obs

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"time"
)

// Prometheus text exposition (format version 0.0.4), hand-rolled on the
// stdlib. Mapping from obs instruments:
//
//   - Counter  "stream.frames"   → hideseek_stream_frames_total (counter)
//   - Timer    "zigbee.sync"     → hideseek_zigbee_sync_seconds (summary:
//     _sum in seconds, _count)
//   - Histogram "stream.scan_ns" → hideseek_stream_scan_ns (histogram:
//     cumulative _bucket{le=...} series from the log buckets, _sum,
//     _count) plus rolling-window quantile gauges
//     hideseek_stream_scan_ns_p50{window="60s"} etc. for the non-empty
//     windows.
//   - Gauge "calib_threshold.zigbee" → hideseek_calib_threshold_zigbee
//     (gauge): last set value, no suffix.
//
// Histogram values keep the unit their obs name declares (_ns, _us,
// plain depth); only timers are converted, because their unit (duration)
// is intrinsic. Runtime gauges are appended under hideseek_go_*.

// PrometheusContentType is the Content-Type for /metrics responses.
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// promName maps a dotted instrument name onto the Prometheus grammar
// ([a-zA-Z_:][a-zA-Z0-9_:]*) under the hideseek_ namespace.
func promName(name string) string {
	b := []byte("hideseek_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b = append(b, byte(r))
		default:
			b = append(b, '_')
		}
	}
	return string(b)
}

// promFloat renders a sample value; Prometheus spells infinities with an
// explicit sign.
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promWriter accumulates the first write error so the render loop stays
// linear.
type promWriter struct {
	w   io.Writer
	err error
}

func (p *promWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

func (p *promWriter) sample(name, labels string, v float64) {
	if labels == "" {
		p.printf("%s %s\n", name, promFloat(v))
		return
	}
	p.printf("%s{%s} %s\n", name, labels, promFloat(v))
}

// WritePrometheus renders the snapshot in the Prometheus text format.
// Families are emitted in sorted instrument order (counters, timers,
// histograms, then runtime gauges), so output is diff-stable for a
// quiesced registry.
func WritePrometheus(w io.Writer, s Snapshot) error {
	p := &promWriter{w: w}
	for _, name := range sortedKeys(s.Counters) {
		fam := promName(name) + "_total"
		p.printf("# TYPE %s counter\n", fam)
		p.sample(fam, "", float64(s.Counters[name]))
	}
	for _, name := range sortedKeys(s.Timers) {
		t := s.Timers[name]
		fam := promName(name) + "_seconds"
		p.printf("# TYPE %s summary\n", fam)
		p.sample(fam+"_sum", "", t.TotalMS/1e3)
		p.sample(fam+"_count", "", float64(t.Count))
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		fam := promName(name)
		p.printf("# TYPE %s histogram\n", fam)
		if len(h.Buckets) == 0 {
			// Never observed: a histogram family still needs its +Inf
			// bucket to be well-formed.
			p.sample(fam+"_bucket", `le="+Inf"`, 0)
		}
		for _, b := range h.Buckets {
			p.sample(fam+"_bucket", fmt.Sprintf("le=%q", promFloat(b.UpperBound)), float64(b.Count))
		}
		p.sample(fam+"_sum", "", h.Sum)
		p.sample(fam+"_count", "", float64(h.Count))
		win, ok := s.Windows[name]
		if !ok {
			continue
		}
		for _, q := range []struct {
			suffix string
			pick   func(HistogramStats) float64
		}{
			{"_p50", func(st HistogramStats) float64 { return st.P50 }},
			{"_p95", func(st HistogramStats) float64 { return st.P95 }},
			{"_p99", func(st HistogramStats) float64 { return st.P99 }},
		} {
			wrote := false
			for _, ws := range []struct {
				label string
				stats HistogramStats
			}{
				{promWindowLabel(WindowShort), win.Last60s},
				{promWindowLabel(WindowLong), win.Last120s},
			} {
				if ws.stats.Count == 0 {
					continue
				}
				if !wrote {
					p.printf("# TYPE %s gauge\n", fam+q.suffix)
					wrote = true
				}
				p.sample(fam+q.suffix, fmt.Sprintf("window=%q", ws.label), q.pick(ws.stats))
			}
		}
	}
	for _, name := range sortedKeys(s.Gauges) {
		fam := promName(name)
		p.printf("# TYPE %s gauge\n", fam)
		p.sample(fam, "", s.Gauges[name])
	}
	writeAlertsProm(p, s.Alerts)
	writeRuntimeProm(p, s.Runtime)
	return p.err
}

// writeAlertsProm renders the SLO rule states in the Prometheus alerting
// convention: an ALERTS{alertname,severity,state} series per rule that
// is pending or firing, plus a hideseek_slo_budget_remaining{rule} gauge
// for every rule so dashboards can plot budget before anything fires.
// Rules whose names would break the label grammar are skipped.
func writeAlertsProm(p *promWriter, alerts []AlertSample) {
	if len(alerts) == 0 {
		return
	}
	active := false
	for _, a := range alerts {
		if validAlertName(a.Name) && (a.State == "pending" || a.State == "firing") {
			active = true
			break
		}
	}
	if active {
		p.printf("# TYPE ALERTS gauge\n")
		for _, a := range alerts {
			if !validAlertName(a.Name) || (a.State != "pending" && a.State != "firing") {
				continue
			}
			p.sample("ALERTS", fmt.Sprintf("alertname=%q,severity=%q,state=%q", a.Name, a.Severity, a.State), 1)
		}
	}
	wrote := false
	for _, a := range alerts {
		if !validAlertName(a.Name) {
			continue
		}
		if !wrote {
			p.printf("# TYPE hideseek_slo_budget_remaining gauge\n")
			wrote = true
		}
		p.sample("hideseek_slo_budget_remaining", fmt.Sprintf("rule=%q", a.Name), a.BudgetRemaining)
	}
}

func promWindowLabel(d time.Duration) string {
	return strconv.Itoa(int(d/time.Second)) + "s"
}

// writeRuntimeProm appends the Go runtime gauges.
func writeRuntimeProm(p *promWriter, r RuntimeStats) {
	gauges := []struct {
		name string
		typ  string
		v    float64
	}{
		{"hideseek_go_goroutines", "gauge", float64(r.Goroutines)},
		{"hideseek_go_heap_alloc_bytes", "gauge", float64(r.HeapAllocBytes)},
		{"hideseek_go_heap_sys_bytes", "gauge", float64(r.HeapSysBytes)},
		{"hideseek_go_gc_cycles_total", "counter", float64(r.NumGC)},
		{"hideseek_go_gc_pause_p50_seconds", "gauge", r.GCPauseP50US / 1e6},
		{"hideseek_go_gc_pause_p99_seconds", "gauge", r.GCPauseP99US / 1e6},
	}
	for _, g := range gauges {
		p.printf("# TYPE %s %s\n", g.name, g.typ)
		p.sample(g.name, "", g.v)
	}
}
