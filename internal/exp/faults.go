package exp

import (
	"context"
	"fmt"

	"svtsim/internal/cpu"
	"svtsim/internal/fault"
	"svtsim/internal/hv"
	"svtsim/internal/machine"
	"svtsim/internal/sim"
)

// FaultSweepResult is one fault-injection run: the workload outcome plus
// every recovery counter the fault plane exercised.
type FaultSweepResult struct {
	Mode      hv.Mode
	Spec      string
	Seed      int64
	N         int
	Total     sim.Time
	PerOp     sim.Time
	Completed bool

	Reflections         uint64
	WatchdogFires       uint64
	Fallbacks           uint64
	FallbackReflections uint64
	BreakerTrips        uint64
	BreakerRecoveries   uint64
	SWFallbacks         uint64
	FaultFires          uint64
	IRQDropped          uint64
	IRQDelayed          uint64

	// Storm counters, populated only for migration-storm cells
	// (Storms > 0); plain sweep rows leave them zero and StatsLine
	// omits them, keeping historical lines byte-identical.
	Storms            int
	GangMigrations    uint64
	GangRollbacks     uint64
	GangRetries       uint64
	GangSkipped       uint64
	MigrationDowntime sim.Time
}

// StatsLine renders the result as one deterministic line; two runs with
// the same spec and seed must produce byte-identical lines (the
// reproducibility contract the determinism test pins).
func (r FaultSweepResult) StatsLine() string {
	line := fmt.Sprintf("mode=%s n=%d seed=%d spec=%q total=%v perop=%v completed=%v "+
		"refl=%d wd=%d fallbacks=%d open-fallbacks=%d trips=%d recoveries=%d swfb=%d fires=%d irqdrop=%d irqdelay=%d",
		r.Mode, r.N, r.Seed, r.Spec, r.Total, r.PerOp, r.Completed,
		r.Reflections, r.WatchdogFires, r.Fallbacks, r.FallbackReflections,
		r.BreakerTrips, r.BreakerRecoveries, r.SWFallbacks, r.FaultFires,
		r.IRQDropped, r.IRQDelayed)
	if r.Storms > 0 {
		line += fmt.Sprintf(" storms=%d migrations=%d rollbacks=%d retries=%d skipped=%d downtime=%v",
			r.Storms, r.GangMigrations, r.GangRollbacks, r.GangRetries, r.GangSkipped, r.MigrationDowntime)
	}
	return line
}

// FaultSweep runs the nested cpuid micro-benchmark with the given fault
// spec armed and reports the recovery counters. mutate, when non-nil,
// runs after machine assembly so callers can tighten the watchdog or
// breaker before the run. The explicit spec overrides the session's
// armed spec for this run; the session's obs arming still applies.
func (s *Session) FaultSweep(mode hv.Mode, spec *fault.Spec, n int, mutate func(*machine.Machine)) FaultSweepResult {
	cfg := s.config(mode)
	cfg.Faults = spec
	m := machine.NewNested(cfg)
	if mutate != nil {
		mutate(m)
	}
	m.SetL2Workload(cpuidLoop(n, 0))
	s.run(m)
	m.Shutdown()

	r := FaultSweepResult{
		Mode:      mode,
		N:         n,
		Total:     m.Now(),
		PerOp:     m.Now() / sim.Time(n),
		Completed: !m.L0.DeadlockDetected,
	}
	if spec != nil {
		r.Spec = spec.String()
		r.Seed = spec.Seed
	}
	r.SWFallbacks = m.L0.SWFallbacks.Value()
	if m.Chan != nil {
		r.Reflections = m.Chan.Reflections.Value()
		r.WatchdogFires = m.Chan.WatchdogFires.Value()
		r.Fallbacks = m.Chan.Fallbacks.Value()
		r.FallbackReflections = m.Chan.FallbackReflections.Value()
		r.BreakerTrips, r.BreakerRecoveries = m.Chan.BreakerStats()
	}
	if m.Faults != nil {
		r.FaultFires = m.Faults.Fires()
	}
	for i := 0; i < m.Core.Contexts(); i++ {
		if l := m.Core.LAPIC(cpu.ContextID(i)); l != nil {
			r.IRQDropped += l.Dropped()
			r.IRQDelayed += l.Delayed()
		}
	}
	return r
}

// FaultStormSweep is the migration-flavored fault sweep: k VMs run
// consolidated on the session topology while a seeded storm of live
// gang migrations churns their placement, with the given fault spec
// armed on the host engine so migrate/* (and any other configured)
// sites fire mid-flight. The result folds the gang recovery counters —
// migrations, retries, rollbacks, breaker-skips — into the usual sweep
// row so grids can mix machine-level and placement-level fault rows.
func (s *Session) FaultStormSweep(mode hv.Mode, spec *fault.Spec, k, storms int, stormSeed int64) FaultSweepResult {
	_, res, plane := s.consolidateStorm(mode, k, &vmCache{}, stormPlan(k, storms, stormSeed, 50, 2000, 5), spec)
	r := FaultSweepResult{
		Mode:      mode,
		N:         k,
		Total:     res.Elapsed,
		Completed: true,
		Storms:    storms,

		GangMigrations:    res.GangMigrations,
		GangRollbacks:     res.GangRollbacks,
		GangRetries:       res.GangRetries,
		GangSkipped:       res.GangSkipped,
		MigrationDowntime: res.MigrationDowntime,
	}
	if storms > 0 {
		r.PerOp = res.Elapsed / sim.Time(storms)
	}
	if spec != nil {
		r.Spec = spec.String()
		r.Seed = spec.Seed
	}
	if plane != nil {
		r.FaultFires = plane.Fires()
	}
	return r
}

// FaultCell is one independent fault-sweep run. A cell with Storms > 0
// runs FaultStormSweep (N is the VM count, StormSeed the storm seed)
// instead of the single-machine micro-benchmark sweep.
type FaultCell struct {
	Mode hv.Mode
	Spec *fault.Spec
	N    int

	Storms    int
	StormSeed int64
}

// FaultSweepGrid runs every cell on the session's worker pool and
// returns results in cell order. Each cell assembles its own machine
// (or storm host) with its own seeded fault plane, so the grid is
// byte-identical to running the cells serially (pinned by
// TestFaultSweepGridParallelDeterminism).
func (s *Session) FaultSweepGrid(cells []FaultCell) []FaultSweepResult {
	out, _ := s.FaultSweepGridJob(context.Background(), cells, nil)
	return out
}
