package exp

import (
	"runtime"
	"testing"

	"svtsim/internal/hv"
)

// The nested exit path's allocations are pinned per mode. The marginal
// mallocs of extra iterations (a long run minus a short one, after a
// warm-up run) cancel machine construction and leave only the per-exit
// cost. Every vCPU body runs as a coroutine and every exit record is a
// value, so resuming a guest and trapping add nothing per exit; a change
// that allocates on the exit path fails here before it shows in
// perfbench.

// marginalAllocs reports the mallocs per extra iteration of run between
// n=lo and n=hi, after a warm-up run at lo.
func marginalAllocs(run func(n int), lo, hi int) float64 {
	mallocs := func(n int) int64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run(n)
		runtime.ReadMemStats(&after)
		return int64(after.Mallocs - before.Mallocs)
	}
	run(lo) // warm-up
	return float64(mallocs(hi)-mallocs(lo)) / float64(hi-lo)
}

func TestNestedExitAllocsPinned(t *testing.T) {
	limits := []struct {
		mode hv.Mode
		max  float64 // allocs per extra nested cpuid
	}{
		{hv.ModeBaseline, 3.0},
		{hv.ModeSWSVt, 2.0},
		{hv.ModeHWSVt, 0.3},
	}
	sess := NewSession()
	sess.SetParallelism(1)
	for _, l := range limits {
		per := marginalAllocs(func(n int) { sess.CPUIDNested(l.mode, n) }, 1000, 3000)
		t.Logf("%s: %.2f allocs per nested cpuid", l.mode, per)
		if per > l.max {
			t.Errorf("%s: %.2f allocs per nested cpuid, want <= %.1f", l.mode, per, l.max)
		}
	}
}

// TestNetRRAllocsPinned pins the marginal mallocs of one netperf TCP_RR
// transaction per mode: an MMIO kick, the device's completion interrupt
// and its reflection, on top of the netstack's own buffers.
func TestNetRRAllocsPinned(t *testing.T) {
	limits := []struct {
		mode hv.Mode
		max  float64 // allocs per extra transaction
	}{
		{hv.ModeBaseline, 69.0},
		{hv.ModeSWSVt, 57.7},
		{hv.ModeHWSVt, 25.7},
	}
	sess := NewSession()
	sess.SetParallelism(1)
	for _, l := range limits {
		per := marginalAllocs(func(n int) { sess.NetLatency(l.mode, n) }, 100, 300)
		t.Logf("%s: %.2f allocs per netrr transaction", l.mode, per)
		if per > l.max {
			t.Errorf("%s: %.2f allocs per netrr transaction, want <= %.1f", l.mode, per, l.max)
		}
	}
}
