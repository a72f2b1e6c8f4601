package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"svtsim/internal/exp"
	"svtsim/internal/server"
)

// fleetJob is one fleet-scale sweep: a density sweep up to kmax VMs, or
// a storm table under a seeded migration storm.
type fleetJob struct {
	density bool
	kmax    int   // density sweep
	seed    int64 // storm table
}

func (j fleetJob) key() string {
	if j.density {
		return fmt.Sprintf("density/kmax=%d", j.kmax)
	}
	return fmt.Sprintf("storm/seed=%d", j.seed)
}

// fleetDensity packs many short-lived nested VMs onto the fleet host:
// DensitySweep and StormTable over all modes with a pool width of 2.
// It loads machine construction, EPT composition, snapshot capture and
// the phase-2 host replay.
type fleetDensity struct {
	jobs  []fleetJob
	es    *exp.Session
	cache *server.Cache
}

// The density sweeps' p99 SLO, and the storm tables' VM and storm
// counts.
const (
	fleetSLOUs    = 500
	fleetStormVMs = 7
	fleetStorms   = 4
)

func newFleetDensity(seed int64) *fleetDensity {
	rng := rand.New(rand.NewSource(seed))
	w := &fleetDensity{}
	// Three density sweeps and two storm tables: the sweeps take about
	// twice as long, and unequal counts keep the median latency inside
	// one class instead of on the boundary between the two. The seed
	// picks the order, the storm plans and which sweep packs how many
	// VMs, never the total work of a pass.
	for _, kmax := range rng.Perm(3) {
		w.jobs = append(w.jobs, fleetJob{density: true, kmax: 6 + kmax})
	}
	for i := 0; i < 2; i++ {
		w.jobs = append(w.jobs, fleetJob{seed: rng.Int63n(1 << 30)})
	}
	rng.Shuffle(len(w.jobs), func(i, j int) { w.jobs[i], w.jobs[j] = w.jobs[j], w.jobs[i] })
	return w
}

func (w *fleetDensity) pinned() string { return pinnedFleetDensity }

func (w *fleetDensity) setUp(r *runner) error {
	es := exp.NewSession()
	es.SetParallelism(2)
	w.es, w.cache = es, server.NewCache(64<<20)
	es.DensitySweep(exp.AllModes(), 2, fleetSLOUs)
	es.StormTable(exp.AllModes(), 2, 1, 1)
	return nil
}

func (w *fleetDensity) tearDown() { w.es, w.cache = nil, nil }

func (w *fleetDensity) pass(r *runner) passOut {
	var out passOut
	var d digester
	root := r.rec.begin("pass", 0, 0)
	defer r.rec.end(root)
	var done []string
	for _, j := range w.jobs {
		out.attempted++
		t := time.Now()
		var lines []string
		var events, migrations uint64
		err := safely(func() error {
			lines, events, migrations = w.run(j, r.rec, root)
			return nil
		})
		out.ops = append(out.ops, op{ms: msSince(t)})
		if err != nil {
			out.fail("%s: %v", j.key(), err)
			continue
		}
		out.units += events
		out.add("host.replay_events", float64(events))
		out.add("host.migrations", float64(migrations))
		for _, l := range lines {
			d.add(l)
		}
		w.cache.Put(j.key(), []byte(strings.Join(lines, "\n")), nil)
		done = append(done, j.key())
		readBack(&out, w.cache, done, r.rec, root)
	}
	out.digest = d.sum()
	return out
}

// run executes one job and returns its result lines, the replay's
// engine events and the migrations it performed.
func (w *fleetDensity) run(j fleetJob, rec *recorder, parent int) (lines []string, events, migrations uint64) {
	if j.density {
		var res []exp.DensityResult
		rec.timed("exp.DensitySweep", parent, 0, func() { res = w.es.DensitySweep(exp.AllModes(), j.kmax, fleetSLOUs) })
		for _, r := range res {
			for _, pt := range r.Points {
				lines = append(lines, pt.StatsLine())
				events += pt.Events
				migrations += pt.Migrations
			}
			lines = append(lines, r.SummaryLine())
		}
		return lines, events, migrations
	}
	var res []exp.StormResult
	rec.timed("exp.StormTable", parent, 0, func() { res = w.es.StormTable(exp.AllModes(), fleetStormVMs, fleetStorms, j.seed) })
	for _, r := range res {
		lines = append(lines, r.StatsLine())
		events += r.Events
		migrations += r.GangMigrations
	}
	return lines, events, migrations
}
