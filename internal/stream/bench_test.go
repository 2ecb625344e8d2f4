package stream

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"hideseek/internal/obs"
	"hideseek/internal/phy"
	"hideseek/internal/zigbee"
)

// BenchmarkStreamScan drives the streaming pipeline end to end over a
// multi-frame capture and attaches the scan-stage latency distribution
// (stream.scan_ns p50/p95, the numbers /v1/obs serves) as custom
// metrics, so benchreport lands them in BENCH_sync.json alongside ns/op.
func BenchmarkStreamScan(b *testing.B) {
	tx := zigbee.NewTransmitter()
	wave, err := tx.TransmitPSDU([]byte("bench"))
	if err != nil {
		b.Fatal(err)
	}
	capture, err := BuildCapture(rand.New(rand.NewSource(17)), 1e-3, 900, wave, wave, wave)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Pipelines: []*phy.Pipeline{zigbeePipeline(b)}}
	e, err := NewEngine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats, err := e.Process(ctx, NewSliceSource(capture), func(Verdict) {})
		if err != nil {
			b.Fatal(err)
		}
		if stats.Frames != 3 {
			b.Fatalf("scanned %d frames, want 3", stats.Frames)
		}
	}
	b.StopTimer()
	if st, ok := obs.Snap().Histograms["stream.scan_ns"]; ok && st.Count > 0 {
		b.ReportMetric(st.P50, "scan-p50-ns")
		b.ReportMetric(st.P95, "scan-p95-ns")
	}
}

// BenchmarkEngineSaturation is the fleet capacity probe behind
// BENCH_stream.json (make soak): N concurrent replay sessions stampede a
// sharded fleet with admission control on, and the run reports what the
// capacity-planning section quotes — sustained frames/s per node, p99
// end-to-end verdict latency, and the drop/shed rate at that offered
// load — plus goroutine-leak and heap gauges proving 10k-session churn
// leaves the node clean. Session count is the offered load; every
// session replays the same two-frame capture through its own
// SliceSource, so the work per session is constant across loads.
func BenchmarkEngineSaturation(b *testing.B) {
	tx := zigbee.NewTransmitter()
	wave, err := tx.TransmitPSDU([]byte("soak"))
	if err != nil {
		b.Fatal(err)
	}
	capture, err := BuildCapture(rand.New(rand.NewSource(29)), 1e-3, 600, wave, wave)
	if err != nil {
		b.Fatal(err)
	}
	for _, sessions := range []int{256, 1000, 4000, 10000} {
		b.Run("sessions="+strconv.Itoa(sessions), func(b *testing.B) {
			var before int
			runtime.GC()
			before = runtime.NumGoroutine()
			var (
				frames, dropped, shed int64
				latMu                 sync.Mutex
				latencies             []int64
			)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f, err := NewFleet(FleetConfig{
					Config:    Config{Pipelines: []*phy.Pipeline{zigbeePipeline(b)}},
					Shards:    4,
					Admission: AdmissionConfig{Enabled: true},
				})
				if err != nil {
					b.Fatal(err)
				}
				var wg sync.WaitGroup
				for s := 0; s < sessions; s++ {
					wg.Add(1)
					go func(s int) {
						defer wg.Done()
						var local []int64
						stats, err := f.Process(context.Background(), NewSliceSource(capture), func(v Verdict) {
							local = append(local, v.ScanNS+v.QueueNS+v.DecodeNS+v.DetectNS)
						}, WithSessionKey("soak-"+strconv.Itoa(s%64)))
						if errors.Is(err, ErrShed) {
							atomic.AddInt64(&shed, 1)
							return
						}
						if err != nil {
							b.Error(err)
							return
						}
						atomic.AddInt64(&frames, stats.Frames)
						atomic.AddInt64(&dropped, stats.Dropped)
						latMu.Lock()
						latencies = append(latencies, local...)
						latMu.Unlock()
					}(s)
				}
				wg.Wait()
				f.Close()
			}
			b.StopTimer()
			elapsed := b.Elapsed().Seconds()
			if elapsed > 0 {
				b.ReportMetric(float64(frames)/elapsed, "frames/s")
			}
			offered := float64(sessions) * float64(b.N)
			b.ReportMetric(float64(shed)/offered, "shed-rate")
			if frames+dropped > 0 {
				b.ReportMetric(float64(dropped)/float64(frames+dropped), "drop-rate")
			}
			if len(latencies) > 0 {
				sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
				b.ReportMetric(float64(latencies[len(latencies)*99/100]), "p99-verdict-ns")
			}
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			b.ReportMetric(float64(ms.HeapAlloc), "heap-bytes")
			leaked := runtime.NumGoroutine() - before
			if leaked < 0 {
				leaked = 0
			}
			b.ReportMetric(float64(leaked), "leaked-goroutines")
		})
	}
}
