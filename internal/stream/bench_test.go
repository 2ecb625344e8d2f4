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

	"hideseek/internal/lora"
	"hideseek/internal/obs"
	"hideseek/internal/phy"
	"hideseek/internal/zigbee"
)

// scanCapture is BenchmarkStreamScan's input: three authentic ZigBee
// frames in noise.
func scanCapture(tb testing.TB) []complex128 {
	tb.Helper()
	wave, err := zigbee.NewTransmitter().TransmitPSDU([]byte("bench"))
	if err != nil {
		tb.Fatal(err)
	}
	capture, err := BuildCapture(rand.New(rand.NewSource(17)), 1e-3, 900, wave, wave, wave)
	if err != nil {
		tb.Fatal(err)
	}
	return capture
}

// loraScanCapture is BenchmarkStreamScanLoRa's input: three authentic
// LoRa frames in noise.
func loraScanCapture(tb testing.TB) []complex128 {
	tb.Helper()
	wave, err := lora.NewTransmitter().TransmitPayload([]byte("bench"))
	if err != nil {
		tb.Fatal(err)
	}
	capture, err := BuildCapture(rand.New(rand.NewSource(17)), 1e-3, 900, wave, wave, wave)
	if err != nil {
		tb.Fatal(err)
	}
	return capture
}

// soakCapture is the two-frame capture every BenchmarkEngineSaturation
// session replays.
func soakCapture(tb testing.TB) []complex128 {
	tb.Helper()
	wave, err := zigbee.NewTransmitter().TransmitPSDU([]byte("soak"))
	if err != nil {
		tb.Fatal(err)
	}
	capture, err := BuildCapture(rand.New(rand.NewSource(29)), 1e-3, 600, wave, wave)
	if err != nil {
		tb.Fatal(err)
	}
	return capture
}

// BenchmarkStreamScan drives the streaming pipeline end to end over a
// multi-frame capture, one whole session per op, and attaches the
// scan-stage latency distribution (stream.scan_ns p50/p95, the numbers
// /v1/obs serves) as custom metrics. `make bench-compare` gates its
// ns/op and allocs/op against the parent commit;
// TestStreamScanAllocBudget bounds its allocations on any host.
func BenchmarkStreamScan(b *testing.B) {
	capture := scanCapture(b)
	cfg := Config{Pipelines: []*phy.Pipeline{zigbeePipeline(b)}}
	e, err := NewEngine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	ctx := context.Background()
	// One untimed session first: a short run must not count the first
	// session's pool misses in allocs/op.
	if _, err := e.Process(ctx, NewSliceSource(capture), func(Verdict) {}); err != nil {
		b.Fatal(err)
	}
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

// BenchmarkStreamScanLoRa is BenchmarkStreamScan's LoRa twin: one whole
// session per op over three frames at the default chunk size, where the
// LoRa preamble's 8192-sample sync reference makes the scan, not the
// decode, the dominant cost. `make bench-compare` gates it alongside
// BenchmarkStreamScan.
func BenchmarkStreamScanLoRa(b *testing.B) {
	capture := loraScanCapture(b)
	e, err := NewEngine(Config{Pipelines: []*phy.Pipeline{loraPipeline(b)}})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	ctx := context.Background()
	// One untimed session first: a short run must not count the first
	// session's pool misses in allocs/op.
	if _, err := e.Process(ctx, NewSliceSource(capture), func(Verdict) {}); err != nil {
		b.Fatal(err)
	}
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
}

// BenchmarkEngineSaturation is the capacity probe behind README's
// capacity table: N concurrent replay sessions stampede a sharded engine
// with admission control on, and the run reports sustained frames/s per
// node, p99 end-to-end verdict latency, and the drop/shed rate at that
// offered load, plus heap and goroutine-leak gauges. Run it with
//
//	go test -run '^$' -bench EngineSaturation -benchtime 1x ./internal/stream
//
// Session count is the offered load; every session replays the same
// two-frame capture through its own SliceSource, so the work per
// session is constant across loads. TestFleetSaturationAccounting
// asserts the 256-session point's shed/drop accounting and teardown.
func BenchmarkEngineSaturation(b *testing.B) {
	capture := soakCapture(b)
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
				f, err := NewEngine(Config{
					Pipelines: []*phy.Pipeline{zigbeePipeline(b)},
					Shards:    4,
					Admission: true,
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
