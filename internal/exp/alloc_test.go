package exp

import (
	"runtime"
	"testing"

	"svtsim/internal/hv"
)

// The nested exit path's allocations are pinned per mode. The marginal
// mallocs of 2000 extra nested cpuids (a 3000-iteration run minus a
// 1000-iteration one, after a warm-up run) cancel machine construction
// and leave only the per-exit cost. Every vCPU body runs as a coroutine,
// so resuming one must add nothing per exit; a change that allocates on
// the exit path fails here before it shows in perfbench.
func TestNestedExitAllocsPinned(t *testing.T) {
	limits := []struct {
		mode hv.Mode
		max  float64 // allocs per extra nested cpuid
	}{
		{hv.ModeBaseline, 7.0},
		{hv.ModeSWSVt, 6.0},
		{hv.ModeHWSVt, 4.2},
	}
	sess := NewSession()
	sess.SetParallelism(1)
	mallocs := func(mode hv.Mode, n int) int64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sess.CPUIDNested(mode, n)
		runtime.ReadMemStats(&after)
		return int64(after.Mallocs - before.Mallocs)
	}
	for _, l := range limits {
		sess.CPUIDNested(l.mode, 1000) // warm-up
		per := float64(mallocs(l.mode, 3000)-mallocs(l.mode, 1000)) / 2000
		t.Logf("%s: %.2f allocs per nested cpuid", l.mode, per)
		if per > l.max {
			t.Errorf("%s: %.2f allocs per nested cpuid, want <= %.1f", l.mode, per, l.max)
		}
	}
}
