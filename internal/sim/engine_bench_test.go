package sim

import "testing"

// The steady-state contract these benchmarks pin: once the arena and the
// heap's backing array have reached their high-water mark, scheduling,
// firing and canceling events perform zero heap allocations. Run them
// with go test -bench Engine -benchmem ./internal/sim.

// BenchmarkEngineSchedule measures the schedule→fire ping: one After plus
// one Step per iteration, recycling a single arena slot forever.
func BenchmarkEngineSchedule(b *testing.B) {
	e := New()
	count := 0
	fn := func() { count++ }
	e.After(1, fn)
	e.Step() // warm the arena and the heap's backing array
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(1, fn)
		e.Step()
	}
	if count != b.N+1 {
		b.Fatalf("fired %d, want %d", count, b.N+1)
	}
}

// BenchmarkEngineScheduleCancel measures the schedule→cancel cycle: the
// slot must round-trip through the free-list without touching the GC.
func BenchmarkEngineScheduleCancel(b *testing.B) {
	e := New()
	fn := func() {}
	e.Cancel(e.After(10, fn)) // warm-up
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Cancel(e.After(10, fn))
	}
	if e.PendingEvents() != 0 {
		b.Fatalf("pending = %d, want 0", e.PendingEvents())
	}
}

// BenchmarkEngineDrain measures bulk heap behaviour: fill the queue with
// k events at scattered timestamps, then drain it — the dispatch-heavy
// shape of a real simulation. Reported per event.
func BenchmarkEngineDrain(b *testing.B) {
	const k = 1024
	e := New()
	count := 0
	fn := func() { count++ }
	fill := func() {
		for j := 0; j < k; j++ {
			e.After(Time(j*37%251), fn)
		}
	}
	fill()
	e.Drain(1 << 62) // warm-up: grows arena and heap to the high-water mark
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fill()
		e.Drain(1 << 62)
	}
	b.StopTimer()
	if count != (b.N+1)*k {
		b.Fatalf("fired %d, want %d", count, (b.N+1)*k)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*k), "ns/event")
}
