package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"svtsim/internal/exp"
	"svtsim/internal/hv"
	"svtsim/internal/isa"
	"svtsim/internal/obs"
	"svtsim/internal/server"
)

// ringCap sizes the obs plane's per-track rings so one cell's events
// all fit: counts by event kind are read back from the rings.
const ringCap = 1 << 16

// nestedCell is one Figure 6/7 latency loop run.
type nestedCell struct {
	mode hv.Mode
	loop string // cpuid, netrr or diskrd
	n    int
}

func (c nestedCell) key() string { return fmt.Sprintf("%s/%s/%d", c.mode, c.loop, c.n) }

// nestedExits runs the nested cpuid, netperf TCP_RR and ioping randrd
// loops for every mode through one exp.Session with a pool width of 1.
// It loads the exit path and builds few machines.
type nestedExits struct {
	cells []nestedCell
	exits map[nestedCell]uint64 // nested exits of each cpuid cell
	es    *exp.Session
	cache *server.Cache
}

func newNestedExits(seed int64) (*nestedExits, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &nestedExits{}
	// Input sizes vary by a few percent between seeds so that the work
	// per pass, and with it every figure, stays comparable.
	for _, mode := range exp.AllModes() {
		ncpuid := 4800 + rng.Intn(401)
		for rep := 0; rep < 2; rep++ {
			w.cells = append(w.cells,
				nestedCell{mode, "cpuid", ncpuid},
				nestedCell{mode, "netrr", 480 + rng.Intn(41)},
				nestedCell{mode, "diskrd", 480 + rng.Intn(41)})
		}
	}
	rng.Shuffle(len(w.cells), func(i, j int) { w.cells[i], w.cells[j] = w.cells[j], w.cells[i] })
	// exp.CPUIDNested reports no exit count: take a census of the cpuid
	// cells once, with the obs plane armed.
	return w, w.census()
}

func (w *nestedExits) pinned() string { return pinnedNestedExits }

func (w *nestedExits) setUp(r *runner) error {
	es := exp.NewSession()
	es.SetParallelism(1)
	if r.obs {
		es.SetObs(&obs.Options{RingCap: ringCap})
	}
	w.es, w.cache = es, server.NewCache(64<<20)
	for _, mode := range exp.AllModes() {
		es.CPUIDNested(mode, 200)
		es.NetLatency(mode, 20)
		es.DiskLatency(mode, false, 20)
	}
	return nil
}

// census counts the nested exits of every distinct cpuid cell.
func (w *nestedExits) census() error {
	es := exp.NewSession()
	es.SetParallelism(1)
	es.SetObs(&obs.Options{RingCap: ringCap})
	w.exits = map[nestedCell]uint64{}
	for _, c := range w.cells {
		if _, done := w.exits[c]; c.loop != "cpuid" || done {
			continue
		}
		es.CPUIDNested(c.mode, c.n)
		var p passOut
		if err := countPlane(&p, es.LastObs(), es); err != nil {
			return err
		}
		w.exits[c] = uint64(p.layers["hv.nested_exits"])
	}
	return nil
}

func (w *nestedExits) tearDown() { w.es, w.cache = nil, nil }

func (w *nestedExits) pass(r *runner) passOut {
	var out passOut
	var d digester
	root := r.rec.begin("pass", 0, 0)
	defer r.rec.end(root)
	var done []string
	for _, c := range w.cells {
		out.attempted++
		t := time.Now()
		var line string
		var exits uint64
		err := safely(func() error {
			line, exits = w.run(c, r.rec, root)
			return nil
		})
		out.ops = append(out.ops, op{ms: msSince(t)})
		if err != nil {
			out.fail("%s: %v", c.key(), err)
			continue
		}
		if r.obs {
			if err := countPlane(&out, w.es.LastObs(), w.es); err != nil {
				out.fail("%s: %v", c.key(), err)
			}
		}
		out.units += exits
		d.add(line)
		w.cache.Put(c.key(), []byte(line), nil)
		done = append(done, c.key())
		readBack(&out, w.cache, done, r.rec, root)
	}
	out.digest = d.sum()
	return out
}

// run executes one cell and renders its simulated result as a line.
func (w *nestedExits) run(c nestedCell, rec *recorder, parent int) (string, uint64) {
	es := w.es
	switch c.loop {
	case "cpuid":
		var res exp.CPUIDResult
		rec.timed("exp.CPUIDNested", parent, 0, func() { res = es.CPUIDNested(c.mode, c.n) })
		return fmt.Sprintf("%s perop=%v stages=%v", c.key(), res.PerOp, res.Breakdown.T), w.exits[c]
	case "netrr":
		var res exp.IOResult
		rec.timed("exp.NetLatency", parent, 0, func() { res = es.NetLatency(c.mode, c.n) })
		return ioLine(c, res)
	default:
		var res exp.IOResult
		rec.timed("exp.DiskLatency", parent, 0, func() { res = es.DiskLatency(c.mode, false, c.n) })
		return ioLine(c, res)
	}
}

func ioLine(c nestedCell, r exp.IOResult) (string, uint64) {
	line := fmt.Sprintf("%s mean=%.3f p50=%.3f p99=%.3f", c.key(), r.MeanUs, r.P50Us, r.P99Us)
	var exits uint64
	for reason, n := range r.ExitStats.Count {
		if n > 0 {
			line += fmt.Sprintf(" %s=%d/%v", isa.ExitReason(reason), n, r.ExitStats.Time[reason])
			exits += n
		}
	}
	return line, exits
}

// countPlane adds one machine's observed events, by kind, to the pass's
// layer counts. It fails when a ring wrapped, since counts would then
// be short.
func countPlane(out *passOut, p *obs.Plane, es *exp.Session) error {
	if p == nil {
		return fmt.Errorf("obs plane not armed")
	}
	port := es.Port()
	tr := p.Tracer
	for i := 0; i < tr.Tracks(); i++ {
		ring := tr.Ring(i)
		if ring.Total() > uint64(ring.Cap()) {
			return fmt.Errorf("obs ring %s wrapped (%d events, cap %d)", tr.TrackName(i), ring.Total(), ring.Cap())
		}
		ring.Do(func(e obs.Event) {
			switch e.Kind {
			case obs.KindNestedExit:
				out.add("hv.nested_exits", 1)
				out.add("hv.exits."+port.Classify(isa.ExitReason(e.Arg1)).String(), 1)
			case obs.KindVirtioKick:
				out.add("virtio.kicks", 1)
			case obs.KindVirtioComplete:
				out.add("virtio.completions", 1)
			case obs.KindIRQ:
				out.add("irq.raised", 1)
			case obs.KindIPI:
				out.add("irq.ipis", 1)
			case obs.KindRingPush:
				out.add("swsvt.ring_pushes", 1)
			case obs.KindWake:
				out.add("swsvt.wakes", 1)
			}
		})
	}
	for _, row := range p.Metrics.Rows() {
		var name string
		switch row.Name {
		case "sim.dispatched":
			name = "sim.events"
		case "swsvt.reflections":
			name = "swsvt.reflections"
		default:
			continue
		}
		v, err := strconv.ParseFloat(row.Value, 64)
		if err != nil {
			return fmt.Errorf("metric %s: %w", row.Name, err)
		}
		out.add(name, v)
	}
	return nil
}
