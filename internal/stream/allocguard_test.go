package stream

import (
	"context"
	"testing"
)

// streamScanAllocBudget bounds the allocations of one whole
// BenchmarkStreamScan session (engine setup excluded). Per-session setup
// and receiver cloning still allocate (39–41 per session on amd64); the
// budget only keeps that from growing.
const streamScanAllocBudget = 47

// TestStreamScanAllocBudget is the host-independent form of the perf
// gate's allocs/op check on BenchmarkStreamScan.
func TestStreamScanAllocBudget(t *testing.T) {
	capture := scanCapture(t)
	e, err := NewEngine(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ctx := context.Background()
	allocs := testing.AllocsPerRun(10, func() {
		stats, err := e.Process(ctx, NewSliceSource(capture), func(Verdict) {})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Frames != 3 {
			t.Fatalf("scanned %d frames, want 3", stats.Frames)
		}
	})
	t.Logf("StreamScan session: %v allocs", allocs)
	if allocs > streamScanAllocBudget {
		t.Errorf("StreamScan session allocates %v times, budget %d", allocs, streamScanAllocBudget)
	}
}
