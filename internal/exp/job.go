package exp

// Job-shaped entry points: every long-running experiment, re-expressed
// for a serving context. Each *Job method is its experiment's only
// implementation — the plain call is a wrapper that passes
// context.Background() and no progress. The context is checked before
// each coarse simulation step (a packing level of a density sweep, a
// cell of a table or grid, a window of a fleet replay) and the optional
// ProgressFunc is fed after every completed step. Cancellation is
// cooperative at step granularity — a single nested-VM simulation always
// runs to completion — and an uncancelled job's results are a pure
// function of its inputs at any pool width, which is what lets
// svtsimd's content-addressed cache treat a job's rendered output as a
// pure function of its request.

import (
	"context"
	"fmt"
	"sync"

	"svtsim/internal/hv"
	"svtsim/internal/parallel"
	"svtsim/internal/sim"
)

// ProgressEvent is one completed step of a job: Done of Total steps of
// Stage are finished, and Detail names the step that just completed.
type ProgressEvent struct {
	Stage  string `json:"stage"`
	Done   int    `json:"done"`
	Total  int    `json:"total"`
	Detail string `json:"detail,omitempty"`
}

// ProgressFunc receives progress events. Calls are serialized and Done
// strictly increases, even when a job's cells run on several pool
// workers; nil is allowed and reports nothing.
type ProgressFunc func(ProgressEvent)

func (pr ProgressFunc) emit(stage string, done, total int, detail string) {
	if pr != nil {
		pr(ProgressEvent{Stage: stage, Done: done, Total: total, Detail: detail})
	}
}

// mapCells runs cell(0..n-1) on a pool of the given width and returns
// the results in index order. ctx is checked before each cell starts; a
// cell skipped because ctx was done makes the whole call return ctx's
// error. Progress is emitted under a lock as cells finish, so Done runs
// 1..n; at width 1 the cells, and their events, run in index order. The
// lock is held across pr on purpose: serialized calls are the
// ProgressFunc contract, and the lock is private, so pr cannot re-enter
// it.
func mapCells[T any](ctx context.Context, workers, n int, pr ProgressFunc, stage string, detail func(int) string, cell func(int) T) ([]T, error) {
	var (
		mu   sync.Mutex
		done int
		err  error
	)
	out := parallel.MapN(workers, n, func(i int) T {
		var zero T
		if e := ctx.Err(); e != nil {
			mu.Lock()
			err = e
			mu.Unlock()
			return zero
		}
		v := cell(i)
		mu.Lock()
		done++
		pr.emit(stage, done, n, detail(i))
		mu.Unlock()
		return v
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// DensitySweepJob packs k = 1..kmax nested VMs per mode and reports
// every packing level plus the max density meeting the p99 SLO (see
// DensitySweep). ctx is checked and progress reported per packing
// level; each level fans its VMs out on the session's pool.
func (s *Session) DensitySweepJob(ctx context.Context, modes []hv.Mode, kmax int, sloUs float64, pr ProgressFunc) ([]DensityResult, error) {
	topo := s.Topology()
	if kmax <= 0 {
		kmax = topo.Contexts()
	}
	total := len(modes) * kmax
	done := 0
	out := make([]DensityResult, len(modes))
	for mi, mode := range modes {
		res := DensityResult{Mode: mode, Topo: topo, SLOUs: sloUs}
		cache := &vmCache{}
		for k := 1; k <= kmax; k++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			pt := s.consolidate(mode, k, cache)
			res.Points = append(res.Points, pt)
			if pt.WorstP99Us <= sloUs {
				res.MaxDensity = k
			}
			done++
			pr.emit("density", done, total, fmt.Sprintf("mode=%s k=%d", mode, k))
		}
		out[mi] = res
	}
	return out, nil
}

// StormTableJob runs MigrationStorm for every mode, one cell per mode on
// the session's pool, with ctx checked and progress reported per cell.
func (s *Session) StormTableJob(ctx context.Context, modes []hv.Mode, k, storms int, seed int64, pr ProgressFunc) ([]StormResult, error) {
	return mapCells(ctx, s.Workers(), len(modes), pr, "storm",
		func(i int) string { return fmt.Sprintf("mode=%s", modes[i]) },
		func(i int) StormResult { return s.MigrationStorm(modes[i], k, storms, seed) })
}

// LoadBalancerTableJob runs LoadBalancer for every mode of one
// scenario, one cell per mode on the session's pool, with ctx checked
// and progress reported per cell.
func (s *Session) LoadBalancerTableJob(ctx context.Context, modes []hv.Mode, k int, scenario string, seed int64, sloUs float64, pr ProgressFunc) ([]LBResult, error) {
	return mapCells(ctx, s.Workers(), len(modes), pr, "lb",
		func(i int) string { return fmt.Sprintf("mode=%s scen=%s", modes[i], scenario) },
		func(i int) LBResult { return s.LoadBalancer(modes[i], k, scenario, seed, sloUs) })
}

// FaultSweepGridJob runs every fault cell on the session's pool, with
// ctx checked and progress reported per cell. A cell with Storms > 0
// runs FaultStormSweep, any other FaultSweep.
func (s *Session) FaultSweepGridJob(ctx context.Context, cells []FaultCell, pr ProgressFunc) ([]FaultSweepResult, error) {
	return mapCells(ctx, s.Workers(), len(cells), pr, "faultgrid",
		func(i int) string { return fmt.Sprintf("mode=%s", cells[i].Mode) },
		func(i int) FaultSweepResult {
			c := cells[i]
			if c.Storms > 0 {
				return s.FaultStormSweep(c.Mode, c.Spec, c.N, c.Storms, c.StormSeed)
			}
			return s.FaultSweep(c.Mode, c.Spec, c.N, nil)
		})
}

// fleetReplayWindows is the progress granularity of a fleet replay: the
// simulated duration is covered in this many RunUntil windows, with the
// context checked between them. RunUntil is exact and monotonic
// (TestRepeatedRunUntil in internal/sim), so windowing never changes the
// digest.
const fleetReplayWindows = 16

// FleetReplayJob runs the fleet-replay macro on the session's topology
// and host params, with cancellation and progress between simulated-time
// windows. dur and tick <= 0 keep the DefaultFleetReplaySpec values;
// crossEvery < 0 keeps the default (0 disables cross-socket IPIs). An
// uncancelled job's result is byte-identical to FleetReplay on the same
// spec.
func (s *Session) FleetReplayJob(ctx context.Context, dur, tick sim.Time, crossEvery int, pr ProgressFunc) (FleetReplayResult, error) {
	spec := DefaultFleetReplaySpec()
	spec.Topo = s.Topology()
	spec.P = s.HostParams()
	if dur > 0 {
		spec.Dur = dur
	}
	if tick > 0 {
		spec.Tick = tick
	}
	if crossEvery >= 0 {
		spec.CrossEvery = crossEvery
	}
	return fleetReplay(ctx, spec, pr)
}
