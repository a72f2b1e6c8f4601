// Command perfbench is svtsim's benchmark. It runs one workload for a
// fixed wall-clock budget and prints the end-to-end metrics (untraced
// run) or the per-layer metrics (traced run), after checking that every
// simulated output is correct. See README.md for the workloads, the
// metrics and the layer each one is predicted to move.
//
//	go run . --workload nested-exits --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. A failed check makes
// the exit status non-zero.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"svtsim/internal/server"
)

// processStart approximates process start for the first-pass latency
// printed beside setup_s.
var processStart = time.Now()

// defaultSeed is the seed whose output digests are pinned.
const defaultSeed = 1

// op is one timed operation of a pass.
type op struct {
	cached bool // served from a result cache rather than simulated
	ms     float64
}

// passOut is what one pass of a workload reports.
type passOut struct {
	units     uint64 // work units: nested exits, replay events or requests
	ops       []op
	attempted int
	failed    int
	digest    string               // digest of the pass's simulated outputs
	layers    map[string]float64   // per-layer counts (traced passes)
	samples   map[string][]float64 // per-layer per-operation values (traced passes)
}

// sample records one per-operation value of a layer metric.
func (p *passOut) sample(name string, v float64) {
	if p.samples == nil {
		p.samples = map[string][]float64{}
	}
	p.samples[name] = append(p.samples[name], v)
}

// add adds v to a per-layer count.
func (p *passOut) add(name string, v float64) {
	if p.layers == nil {
		p.layers = map[string]float64{}
	}
	p.layers[name] += v
}

// fail records a failed operation with its reason.
func (p *passOut) fail(format string, args ...any) {
	p.failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAIL: "+format+"\n", args...)
}

// readBack times one cached operation: reading back, from svtsimd's
// result cache, every result computed so far in the pass (keys in
// done). Every read must hit.
func readBack(out *passOut, cache *server.Cache, done []string, rec *recorder, parent int) {
	out.attempted++
	misses := 0
	t := time.Now()
	rec.timed("server.Cache.Get", parent, 0, func() {
		for _, k := range done {
			if cache.Get(k) == nil {
				misses++
			}
		}
	})
	out.ops = append(out.ops, op{cached: true, ms: msSince(t)})
	if misses > 0 {
		out.fail("%d of %d computed results missed the cache", misses, len(done))
	}
}

// runner carries what a workload needs to know about the run.
type runner struct {
	rec *recorder // nil when untraced
	obs bool      // arm the obs plane (traced passes only)
}

// workload is one benchmark traffic mix.
type workload interface {
	// setUp builds the state a pass runs on (a fresh session or
	// server) and warms it up. It is timed as one set-up.
	setUp(r *runner) error
	// pass runs the fixed job list once.
	pass(r *runner) passOut
	// tearDown releases what setUp built.
	tearDown()
	// pinned is the output digest expected for the default seed.
	pinned() string
}

// pass is one measured pass.
type pass struct {
	setupS, wallS   float64
	mallocs, allocB uint64
	peakLive        uint64
	gcCycles        uint32
	gcPauseNs       uint64
	out             passOut
}

// measurement is everything one run collected.
type measurement struct {
	passes    []pass
	attempted int
	failed    int
	firstPass float64 // process start to the first timed pass, seconds
	stealPct  float64 // CPU time the host took from this machine, -1 if unknown
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", defaultSeed, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", 10, "wall-clock budget of the measurement")
	traced := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	outDir := fs.String("out", ".bench_build", "directory for span and profile files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := newWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))
	var (
		res     map[string]metric
		meas    measurement
		correct bool
	)
	if *traced == 1 {
		res, meas, err = tracedRun(w, *name, *seed, budget, *outDir, stdout)
	} else {
		meas = measure(w, &runner{}, *seed, budget)
		res = endToEnd(meas, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		meas.failed++
	}
	correct = meas.failed == 0 && len(meas.passes) > 0
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, max(meas.attempted, 1), meas.failed, res})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !correct {
		return 1
	}
	return 0
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measure runs set-up and pass cycles until the budget is spent.
func measure(w workload, r *runner, seed int64, budget time.Duration) measurement {
	var m measurement
	steal0, total0, stealOK := hostSteal()
	start := time.Now()
	var cycle time.Duration
	for len(m.passes) == 0 || time.Since(start)+cycle <= budget {
		c0 := time.Now()
		p, ok := onePass(w, r)
		cycle = time.Since(c0)
		if len(m.passes) == 0 {
			m.firstPass = time.Since(processStart).Seconds() - p.wallS
		}
		m.attempted += p.out.attempted
		m.failed += p.out.failed
		if !ok {
			break
		}
		// The pass's output check is one more attempted operation.
		m.attempted++
		if want, ok := pinnedFor(w, seed, m.passes); ok && p.out.digest != want {
			m.failed++
			fmt.Fprintf(os.Stderr, "perfbench: FAIL: output digest %s, want %s\n", p.out.digest, want)
		}
		m.passes = append(m.passes, p)
	}
	m.stealPct = -1
	if steal1, total1, ok := hostSteal(); ok && stealOK && total1 > total0 {
		m.stealPct = 100 * float64(steal1-steal0) / float64(total1-total0)
	}
	return m
}

// hostSteal reads the machine-wide steal time and total CPU time, in
// clock ticks, from /proc/stat. Steal is time a virtual machine's CPUs
// were ready but the host ran something else; it explains much of the
// run-to-run noise of the time metrics on shared hosts.
func hostSteal() (steal, total uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return parseCPULine(line)
}

// parseCPULine parses the aggregate "cpu" line of /proc/stat: user nice
// system idle iowait irq softirq steal [guest guest_nice]. Guest time
// is already counted in user time, so it is left out of the total.
func parseCPULine(line string) (steal, total uint64, ok bool) {
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, x := range f[1:min(len(f), 9)] {
		v, err := strconv.ParseUint(x, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// pinnedFor is the digest a pass must reproduce: the pinned value for
// the default seed, otherwise the first pass's digest (every pass runs
// the same inputs, so outputs must repeat exactly).
func pinnedFor(w workload, seed int64, prev []pass) (string, bool) {
	if seed == defaultSeed {
		return w.pinned(), true
	}
	if len(prev) == 0 {
		return "", false
	}
	return prev[0].out.digest, true
}

// onePass runs one timed set-up and one timed pass. ok is false when
// set-up failed.
func onePass(w workload, r *runner) (p pass, ok bool) {
	t := time.Now()
	err := safely(func() error { return w.setUp(r) })
	p.setupS = time.Since(t).Seconds()
	if err != nil {
		p.out.attempted, p.out.failed = 1, 1
		fmt.Fprintln(os.Stderr, "perfbench: FAIL: set-up:", err)
		w.tearDown()
		return p, false
	}
	// Start every pass from a collected heap, outside the timed region,
	// so the peak counts only what this pass holds: a pass does not
	// inherit the garbage of the one before it.
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	peak := startPeakSampler()
	t = time.Now()
	if err := safely(func() error { p.out = w.pass(r); return nil }); err != nil {
		p.out.attempted++
		p.out.fail("pass: %v", err)
	}
	p.wallS = time.Since(t).Seconds()
	p.peakLive = peak()
	runtime.ReadMemStats(&ms1)
	w.tearDown()
	p.mallocs = ms1.Mallocs - ms0.Mallocs
	p.allocB = ms1.TotalAlloc - ms0.TotalAlloc
	p.gcCycles = ms1.NumGC - ms0.NumGC
	p.gcPauseNs = ms1.PauseTotalNs - ms0.PauseTotalNs
	return p, true
}

// safely runs f, turning a panic into an error.
func safely(f func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic: %v", v)
		}
	}()
	return f()
}

// startPeakSampler samples the live heap (as marked by the last GC)
// every millisecond until the returned function is called; that
// function stops the sampler, waits for it and returns the peak above
// the live heap at the start.
func startPeakSampler() func() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	read := func() uint64 {
		metrics.Read(sample)
		if sample[0].Value.Kind() != metrics.KindUint64 {
			return 0
		}
		return sample[0].Value.Uint64()
	}
	var (
		peak uint64
		wg   sync.WaitGroup
	)
	stop := make(chan struct{})
	base := read()
	peak = base
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				peak = max(peak, read())
			}
		}
	}()
	return func() uint64 {
		close(stop)
		wg.Wait()
		return max(peak, read()) - base
	}
}

// endToEnd reduces an untraced measurement to the end-to-end metrics
// and prints a table with the tail percentiles and sample counts.
func endToEnd(m measurement, out io.Writer) map[string]metric {
	var setup, wall, rate, perUnit, allocMB, peakMB, cold, cached []float64
	for _, p := range m.passes {
		setup = append(setup, p.setupS)
		wall = append(wall, p.wallS)
		rate = append(rate, float64(p.out.units)/p.wallS)
		perUnit = append(perUnit, float64(p.mallocs)/float64(max(p.out.units, 1)))
		allocMB = append(allocMB, float64(p.allocB)/1e6)
		peakMB = append(peakMB, float64(p.peakLive)/1e6)
		for _, o := range p.out.ops {
			if o.cached {
				cached = append(cached, o.ms)
			} else {
				cold = append(cold, o.ms)
			}
		}
	}
	coldTail, coldP, coldOK := tail(cold)
	cachedTail, cachedP, cachedOK := tail(cached)
	res := map[string]metric{
		"setup_s":         {median(setup), "s"},
		"wall_s":          {median(wall), "s"},
		"units_per_s":     {median(rate), "1/s"},
		"allocs_per_unit": {median(perUnit), "count"},
		"alloc_mb":        {median(allocMB), "MB"},
		"peak_heap_mb":    {median(peakMB), "MB"},
		"cold_p50_ms":     {percentile(cold, 50), "ms"},
		"cold_tail_ms":    {coldTail, "ms"},
		"cached_p50_ms":   {percentile(cached, 50), "ms"},
		"cached_tail_ms":  {cachedTail, "ms"},
	}
	notes := map[string]string{
		"setup_s":        fmt.Sprintf("median of %d set-ups; first pass began %.3fs after process start", len(setup), m.firstPass),
		"wall_s":         fmt.Sprintf("median of %d passes", len(wall)),
		"cold_tail_ms":   tailNote(coldP, coldOK, len(cold)),
		"cached_tail_ms": tailNote(cachedP, cachedOK, len(cached)),
		"cold_p50_ms":    fmt.Sprintf("n=%d", len(cold)),
		"cached_p50_ms":  fmt.Sprintf("n=%d", len(cached)),
	}
	printTable(out, res, notes)
	if m.stealPct >= 0 {
		fmt.Fprintf(out, "host CPU steal during the run: %.1f%% of all CPU time\n", m.stealPct)
	}
	fmt.Fprintf(out, "pass wall_s: %s\n", formatList(wall))
	fmt.Fprintf(out, "pass peak MB: %s\n", formatList(peakMB))
	fmt.Fprintf(out, "set-up s:    %s\n", formatList(setup))
	return res
}

func formatList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(parts, " ")
}

func tailNote(p float64, ok bool, n int) string {
	s := fmt.Sprintf("p%g of n=%d", p, n)
	if !ok {
		s += " (fewer than 20 samples: median shown)"
	}
	return s
}

func printTable(out io.Writer, res map[string]metric, notes map[string]string) {
	names := make([]string, 0, len(res))
	for n := range res {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "%-28s %14.6g %-6s %s\n", n, res[n].Value, res[n].Unit, notes[n])
	}
}

// tracedRun measures half the budget untraced and half traced (spans,
// obs plane and CPU profile on), then probes single layers, and reduces
// it all to the per-layer metrics.
func tracedRun(w workload, name string, seed int64, budget time.Duration, outDir string, out io.Writer) (map[string]metric, measurement, error) {
	plain := measure(w, &runner{}, seed, budget/2)
	rec := newRecorder()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, plain, err
	}
	traced := measure(w, &runner{rec: rec, obs: true}, seed, budget/2)
	pprof.StopCPUProfile()
	probes := probeLayers(rec)
	all := measurement{
		passes:    traced.passes,
		attempted: plain.attempted + traced.attempted + probes.attempted,
		failed:    plain.failed + traced.failed + probes.failed,
	}
	p, err := parseProfile(prof.Bytes())
	if err != nil {
		return nil, all, fmt.Errorf("decode cpu profile: %w", err)
	}
	res := perLayer(out, plain, traced, probes, p.moduleShares(), rec.snapshot())
	printTable(out, res, nil)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return res, all, err
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", name, seed))
	if err := rec.write(base + ".spans.json"); err != nil {
		return res, all, err
	}
	if err := os.WriteFile(base+".cpu.pprof", prof.Bytes(), 0o644); err != nil {
		return res, all, err
	}
	return res, all, nil
}

// newWorkload builds the named workload's job list from the seed.
func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "nested-exits":
		return newNestedExits(seed)
	case "fleet-density":
		return newFleetDensity(seed), nil
	case "svtsimd-mix":
		return newSvtsimdMix(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q; want one of %s", name, strings.Join(workloadNames(), ", "))
}

func workloadNames() []string { return []string{"nested-exits", "fleet-density", "svtsimd-mix"} }
