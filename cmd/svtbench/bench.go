// The -bench mode: a fixed suite of engine microbenchmarks and
// experiment macrobenchmarks run through testing.Benchmark, recorded as
// one JSON document per invocation. Committed BENCH_<date>.json files
// form the repository's perf trajectory: compare ns/op, allocs/op,
// simulated events/sec and parallel speedup across commits to catch
// regressions on the simulator's hot path.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"testing"
	"time"

	"svtsim"
	"svtsim/internal/sim"
)

// BenchResult is one benchmark's measurement.
type BenchResult struct {
	Name        string             `json:"name"`
	Iterations  int                `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// ParallelBaseline records the -all -quick fan-out measurement.
type ParallelBaseline struct {
	Workers    int     `json:"workers"`
	SerialMs   float64 `json:"serial_ms"`
	ParallelMs float64 `json:"parallel_ms"`
	Speedup    float64 `json:"speedup"`
}

// BenchReport is the JSON document -bench emits.
type BenchReport struct {
	Date         string           `json:"date"`
	GoVersion    string           `json:"go_version"`
	GOMAXPROCS   int              `json:"gomaxprocs"`
	Quick        bool             `json:"quick"`
	Engine       []BenchResult    `json:"engine"`
	Experiments  []BenchResult    `json:"experiments"`
	EventsPerSec float64          `json:"simulated_events_per_sec"`
	Parallel     ParallelBaseline `json:"parallel"`
}

func toResult(name string, r testing.BenchmarkResult) BenchResult {
	out := BenchResult{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
	if len(r.Extra) > 0 {
		out.Metrics = map[string]float64{}
		for k, v := range r.Extra {
			out.Metrics[k] = v
		}
	}
	return out
}

// engineSuite: the zero-alloc contract on the engine hot path, measured
// exactly like internal/sim's benchmarks.
func engineSuite() []BenchResult {
	var out []BenchResult

	out = append(out, toResult("EngineSchedule", testing.Benchmark(func(b *testing.B) {
		e := sim.New()
		fn := func() {}
		e.After(1, fn)
		e.Step()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.After(1, fn)
			e.Step()
		}
	})))

	out = append(out, toResult("EngineScheduleCancel", testing.Benchmark(func(b *testing.B) {
		e := sim.New()
		fn := func() {}
		e.Cancel(e.After(10, fn))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Cancel(e.After(10, fn))
		}
	})))

	out = append(out, toResult("EngineDrain1k", testing.Benchmark(func(b *testing.B) {
		const k = 1024
		e := sim.New()
		fn := func() {}
		fill := func() {
			for j := 0; j < k; j++ {
				e.After(sim.Time(j*37%251), fn)
			}
		}
		fill()
		e.Drain(1 << 62)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fill()
			e.Drain(1 << 62)
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*k), "ns/event")
	})))

	return out
}

// experimentSuite: fixed macro cells whose wall-clock ns/op tracks
// whole-simulator speed (virtual-time results are pinned by tests, so
// only the wall clock can move).
func experimentSuite(sess *svtsim.Session, quick bool) []BenchResult {
	n := 500
	dur := 50 * svtsim.Millisecond
	if quick {
		n = 200
		dur = 20 * svtsim.Millisecond
	}
	var out []BenchResult
	cells := []struct {
		name string
		run  func()
	}{
		{"CPUIDNestedBaseline", func() { sess.CPUIDNested(svtsim.Baseline, n) }},
		{"CPUIDNestedSWSVt", func() { sess.CPUIDNested(svtsim.SWSVt, n) }},
		{"CPUIDNestedHWSVt", func() { sess.CPUIDNested(svtsim.HWSVt, n) }},
		{"NetLatencyBaseline", func() { sess.NetLatency(svtsim.Baseline, n/4) }},
		{"DiskLatencySWSVt", func() { sess.DiskLatency(svtsim.SWSVt, false, n/4) }},
		{"MemcachedSWSVt", func() { sess.Memcached(svtsim.SWSVt, 8000, dur) }},
	}
	for _, c := range cells {
		c := c
		out = append(out, toResult(c.name, testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.run()
			}
		})))
	}
	return out
}

// measureEventsPerSec runs the event-heavy netperf TCP_RR workload (every
// transaction crosses the NIC, virtio and LAPIC event paths) and reports
// how many engine events the simulator dispatches per wall-clock second.
func measureEventsPerSec(sess *svtsim.Session, quick bool) float64 {
	n := 400
	if quick {
		n = 100
	}
	start := time.Now()
	_, events, _ := sess.NetLatencyEvents(svtsim.SWSVt, n)
	elapsed := time.Since(start)
	return float64(events) / elapsed.Seconds()
}

// measureParallel times the -all -quick section pipeline serially and on
// the full pool, each on a session of that width: the committed speedup
// is the acceptance metric for the experiment fan-out.
func measureParallel(workers int) (ParallelBaseline, error) {
	timeRun := func(w int) (time.Duration, error) {
		sess, err := svtsim.NewSession(svtsim.WithParallelism(w))
		if err != nil {
			return 0, err
		}
		secs := sections(sess, true, 0, 0, "", false, 400, true, ".")
		start := time.Now()
		renderAll(io.Discard, w, secs)
		return time.Since(start), nil
	}
	timeRun(1) // warm-up: page in code and cost tables before timing
	serial, err := timeRun(1)
	if err != nil {
		return ParallelBaseline{}, err
	}
	par, err := timeRun(workers)
	if err != nil {
		return ParallelBaseline{}, err
	}
	return ParallelBaseline{
		Workers:    workers,
		SerialMs:   float64(serial.Microseconds()) / 1e3,
		ParallelMs: float64(par.Microseconds()) / 1e3,
		Speedup:    float64(serial) / float64(par),
	}, nil
}

// runBench runs the full suite and writes the JSON baseline.
func runBench(w io.Writer, sess *svtsim.Session, outPath string, quick bool, workers int) error {
	date := time.Now().UTC().Format("2006-01-02")
	if outPath == "" {
		outPath = "BENCH_" + date + ".json"
	}
	rep := BenchReport{
		Date:       date,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Quick:      quick,
	}

	fmt.Fprintln(w, "engine microbenchmarks:")
	rep.Engine = engineSuite()
	for _, r := range rep.Engine {
		fmt.Fprintf(w, "  %-22s %12.1f ns/op %8d allocs/op\n", r.Name, r.NsPerOp, r.AllocsPerOp)
	}

	fmt.Fprintln(w, "experiment macrobenchmarks:")
	rep.Experiments = experimentSuite(sess, quick)
	for _, r := range rep.Experiments {
		fmt.Fprintf(w, "  %-22s %12.0f ns/op\n", r.Name, r.NsPerOp)
	}

	rep.EventsPerSec = measureEventsPerSec(sess, quick)
	fmt.Fprintf(w, "simulated events/sec: %.0f\n", rep.EventsPerSec)

	par, err := measureParallel(workers)
	if err != nil {
		return err
	}
	rep.Parallel = par
	fmt.Fprintf(w, "parallel -all -quick: serial %.0f ms, %d workers %.0f ms, speedup %.2fx\n",
		rep.Parallel.SerialMs, rep.Parallel.Workers, rep.Parallel.ParallelMs, rep.Parallel.Speedup)

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "baseline written to %s\n", outPath)
	return nil
}
