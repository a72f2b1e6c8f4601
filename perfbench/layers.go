package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"time"

	"svtsim/internal/ept"
	"svtsim/internal/exp"
	"svtsim/internal/guest"
	"svtsim/internal/hv"
	"svtsim/internal/machine"
	"svtsim/internal/sim"
	"svtsim/internal/snapshot"
)

// selfModules are the svtsim/internal modules whose share of the
// traced run's CPU samples is reported as <module>.self_pct.
var selfModules = []string{
	"sim", "cpu", "core", "hv", "vmcs", "ept", "mem", "virtio", "blk", "netsim",
	"apic", "ports", "swsvt", "guest", "workload", "machine", "snapshot", "host",
	"netstack", "traffic", "exp", "parallel", "server", "obs", "stats", "fault",
	"isa", "cost", "runtime",
}

// layerCounts are per-pass counts the workloads add to passOut.layers;
// the traced run reports their mean over its traced passes.
var layerCounts = []string{
	"sim.events",
	"hv.nested_exits",
	"hv.exits.interrupt", "hv.exits.privileged", "hv.exits.memory",
	"hv.exits.io", "hv.exits.vm-op", "hv.exits.synthetic",
	"virtio.kicks", "virtio.completions",
	"irq.raised", "irq.ipis",
	"swsvt.reflections", "swsvt.ring_pushes", "swsvt.wakes",
	"host.replay_events", "host.migrations",
	"netstack.segs", "netstack.retransmits",
	"server.cache_hit_ratio", "server.cache_bytes",
}

// layerSamples are per-operation values the workloads add to
// passOut.samples; the traced run reports their median.
var layerSamples = []string{"server.submit_us", "server.queue_wait_ms", "server.run_ms"}

// probeNames are the single-layer probes' metrics.
var probeNames = []string{
	"sim.ns_per_event",
	"machine.build_ms", "machine.build_allocs",
	"ept.compose_us", "ept.walks",
	"snapshot.capture_ms", "snapshot.restore_ms", "snapshot.words",
}

// layerUnits gives the unit of every per-layer metric that is not a
// count.
var layerUnits = map[string]string{
	"sim.ns_per_event": "ns", "machine.build_ms": "ms", "ept.compose_us": "us",
	"snapshot.capture_ms": "ms", "snapshot.restore_ms": "ms",
	"server.submit_us": "us", "server.queue_wait_ms": "ms", "server.run_ms": "ms",
	"server.cache_hit_ratio": "ratio", "server.cache_bytes": "bytes",
	"runtime.gc_pause_ms": "ms", "trace.overhead_pct": "%",
}

// perLayerNames lists every per-layer metric with its unit.
func perLayerNames() map[string]string {
	out := map[string]string{}
	for _, n := range slices.Concat(layerCounts, layerSamples, probeNames,
		[]string{"runtime.gc_cycles", "runtime.gc_pause_ms", "trace.overhead_pct"}) {
		out[n] = "count"
		if u, ok := layerUnits[n]; ok {
			out[n] = u
		}
	}
	for _, m := range selfModules {
		out[m+".self_pct"] = "%"
	}
	return out
}

// probes holds the single-layer probe results.
type probes struct {
	values    map[string]float64
	attempted int
	failed    int
}

// probeLayers times single public calls into the layers that the
// experiment entry points hide: engine dispatch, machine construction,
// EPT composition, snapshot capture and restore. It runs after the
// profiled phase so it does not count toward any self_pct.
func probeLayers(rec *recorder) probes {
	pr := probes{values: map[string]float64{}}
	root := rec.begin("probes", 0, 0)
	defer rec.end(root)

	var nsPerEvent []float64
	for i := 0; i < 5; i++ {
		nsPerEvent = append(nsPerEvent, engineProbe(rec, root))
	}
	pr.values["sim.ns_per_event"] = median(nsPerEvent)

	var build, allocs, compose, capture, restore, words, walks []float64
	for _, mode := range exp.AllModes() {
		for rep := 0; rep < 3; rep++ {
			pr.attempted++
			err := safely(func() error {
				var ms0, ms1 runtime.MemStats
				runtime.ReadMemStats(&ms0)
				t := time.Now()
				m, io := diskMachine(rec, root, mode)
				build = append(build, msSince(t))
				runtime.ReadMemStats(&ms1)
				allocs = append(allocs, float64(ms1.Mallocs-ms0.Mallocs))
				defer m.Shutdown()

				t = time.Now()
				var err error
				rec.timed("ept.Compose", root, 0, func() { _, err = ept.Compose("ept02", m.Ept12, m.Ept01) })
				compose = append(compose, msSince(t)*1000)
				if err != nil {
					return err
				}

				rec.timed("machine.Run", root, 0, func() { m.Run() })
				w := m.Ept01.Walks() + m.Ept12.Walks()
				if m.Ept02 != nil {
					w += m.Ept02.Walks()
				}
				walks = append(walks, float64(w))

				t = time.Now()
				var snap *snapshot.Snapshot
				rec.timed("snapshot.Capture", root, 0, func() { snap = snapshot.Capture(m, io) })
				capture = append(capture, msSince(t))
				n := 0
				for _, s := range snap.Sections {
					n += len(s.Words)
				}
				words = append(words, float64(n))

				m2, io2 := diskMachine(rec, root, mode)
				defer m2.Shutdown()
				rec.timed("machine.Run", root, 0, func() { m2.Run() })
				t = time.Now()
				rec.timed("snapshot.Restore", root, 0, func() { err = snapshot.Restore(m2, io2, snap) })
				restore = append(restore, msSince(t))
				if err != nil {
					return err
				}
				if got, want := snapshot.Capture(m2, io2).Digest(), snap.Digest(); got != want {
					return fmt.Errorf("restored %s machine digests %#x, captured %#x", mode, got, want)
				}
				return nil
			})
			if err != nil {
				pr.failed++
				fmt.Fprintf(os.Stderr, "perfbench: FAIL: layer probe: %v\n", err)
			}
		}
	}
	pr.values["machine.build_ms"] = median(build)
	pr.values["machine.build_allocs"] = median(allocs)
	pr.values["ept.compose_us"] = median(compose)
	pr.values["ept.walks"] = median(walks)
	pr.values["snapshot.capture_ms"] = median(capture)
	pr.values["snapshot.restore_ms"] = median(restore)
	pr.values["snapshot.words"] = median(words)
	return pr
}

// diskMachine builds a nested machine with wired I/O whose L2 guest
// writes and reads back a few disk sectors once run.
func diskMachine(rec *recorder, parent int, mode hv.Mode) (*machine.Machine, *machine.IOStack) {
	var (
		m  *machine.Machine
		io *machine.IOStack
	)
	rec.timed("machine.NewNested+WireNestedIO", parent, 0, func() {
		cfg := machine.DefaultConfig(mode)
		io = machine.WireNestedIO(&cfg, machine.DefaultIOParams())
		m = machine.NewNested(cfg)
	})
	data := make([]byte, 512)
	for i := range data {
		data[i] = byte(i)
	}
	m.InstallL2(io, false, true, func(env *guest.Env) {
		for i := 0; i < 8; i++ {
			env.Blk.Write(uint64(64+i*8), data)
		}
		env.Blk.Read(64, len(data))
	})
	return m, io
}

// engineProbe times sim.New, After and Drain over a fixed event chain
// and returns nanoseconds per dispatched event.
func engineProbe(rec *recorder, parent int) float64 {
	const chains, perChain = 64, 4096
	var ns float64
	rec.timed("sim.Drain", parent, 0, func() {
		t := time.Now()
		e := sim.New()
		for c := 0; c < chains; c++ {
			left := perChain
			var step func()
			step = func() {
				if left--; left > 0 {
					e.After(sim.Time(1+c%7), step)
				}
			}
			e.After(sim.Time(c), step)
		}
		if !e.Drain(chains * perChain) {
			panic("perfbench: engine probe did not drain")
		}
		ns = float64(time.Since(t).Nanoseconds()) / float64(max(e.Dispatched(), 1))
	})
	return ns
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// perLayer reduces the traced run to the per-layer metrics.
func perLayer(out io.Writer, plain, traced measurement, pr probes, shares map[string]float64, spans []span) map[string]metric {
	units := perLayerNames()
	res := map[string]metric{}
	for n, u := range units {
		res[n] = metric{0, u}
	}
	set := func(n string, v float64) { res[n] = metric{v, units[n]} }

	np := float64(max(len(traced.passes), 1))
	samples := map[string][]float64{}
	var gcCycles, gcPause, plainWall, tracedWall []float64
	for _, p := range traced.passes {
		for _, n := range layerCounts {
			set(n, res[n].Value+p.out.layers[n]/np)
		}
		for n, v := range p.out.samples {
			samples[n] = append(samples[n], v...)
		}
		gcCycles = append(gcCycles, float64(p.gcCycles))
		gcPause = append(gcPause, float64(p.gcPauseNs)/1e6)
		tracedWall = append(tracedWall, p.wallS)
	}
	for _, p := range plain.passes {
		plainWall = append(plainWall, p.wallS)
	}
	for _, n := range layerSamples {
		set(n, median(samples[n]))
	}
	for n, v := range pr.values {
		set(n, v)
	}
	for _, m := range selfModules {
		set(m+".self_pct", shares[m])
	}
	set("runtime.gc_cycles", median(gcCycles))
	set("runtime.gc_pause_ms", median(gcPause))
	if w := median(plainWall); w > 0 {
		set("trace.overhead_pct", 100*(median(tracedWall)/w-1))
	}
	if self := selfTimes(spans); len(self) > 0 {
		fmt.Fprintln(out, "span self time (ms):")
		for _, n := range sortedKeys(self) {
			fmt.Fprintf(out, "  %-40s %12.3f\n", n, float64(self[n])/1e6)
		}
	}
	return res
}
