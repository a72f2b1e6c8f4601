package exp

import (
	"strings"
	"testing"

	"svtsim/internal/hv"
	"svtsim/internal/isa"
	"svtsim/internal/machine"
	"svtsim/internal/obs"
)

// The observability plane must never perturb the simulation: for a fixed
// (spec, seed) the result is byte-identical with tracing off, on, and on
// with a pathologically small ring (which forces constant rotation).
func TestObsNeverPerturbsResults(t *testing.T) {
	sess := NewSession()
	const n = 150
	for _, mode := range AllModes() {
		sess.SetObs(nil)
		off := sess.CPUIDNested(mode, n)
		sess.SetObs(&obs.Options{})
		on := sess.CPUIDNested(mode, n)
		if sess.LastObs() == nil {
			t.Fatalf("%v: armed run captured no plane", mode)
		}
		sess.SetObs(&obs.Options{RingCap: 4, DispatchSample: 16})
		small := sess.CPUIDNested(mode, n)

		if on.PerOp != off.PerOp {
			t.Errorf("%v: tracing on changed per-op: %v != %v", mode, on.PerOp, off.PerOp)
		}
		if small.PerOp != off.PerOp {
			t.Errorf("%v: small-ring tracing changed per-op: %v != %v", mode, small.PerOp, off.PerOp)
		}
	}
}

// Disarming clears the captured plane, and an unarmed run captures none.
func TestObsDisarm(t *testing.T) {
	sess := NewSession()
	sess.SetObs(&obs.Options{})
	sess.CPUIDNested(hv.ModeBaseline, 20)
	if sess.LastObs() == nil {
		t.Fatal("armed run captured no plane")
	}
	sess.SetObs(nil)
	if sess.LastObs() != nil {
		t.Fatal("SetObs(nil) must clear the captured plane")
	}
	sess.CPUIDNested(hv.ModeBaseline, 20)
	if sess.LastObs() != nil {
		t.Fatal("unarmed run captured a plane")
	}
}

// Two identical armed runs serialize byte-identical artifacts: the
// Perfetto JSON timeline, the metrics CSV, and the span summary.
func TestObsArtifactsAreByteStable(t *testing.T) {
	sess := NewSession()
	render := func() (trace, csv, sum string) {
		sess.SetObs(&obs.Options{})
		sess.NetLatency(hv.ModeSWSVt, 60)
		plane := sess.LastObs()
		if plane == nil {
			t.Fatal("no plane captured")
		}
		var tb, cb, sb strings.Builder
		if err := plane.Tracer.WriteChromeTrace(&tb); err != nil {
			t.Fatal(err)
		}
		if err := plane.Metrics.WriteCSV(&cb); err != nil {
			t.Fatal(err)
		}
		if err := plane.Tracer.WriteSummary(&sb, 20); err != nil {
			t.Fatal(err)
		}
		return tb.String(), cb.String(), sb.String()
	}
	t1, c1, s1 := render()
	t2, c2, s2 := render()
	if t1 != t2 {
		t.Error("trace JSON not byte-stable across identical runs")
	}
	if c1 != c2 {
		t.Error("metrics CSV not byte-stable across identical runs")
	}
	if s1 != s2 {
		t.Error("span summary not byte-stable across identical runs")
	}
	if !strings.Contains(t1, "hw-context-1") {
		t.Error("trace missing the sibling hardware-context track")
	}
	if !strings.Contains(c1, "swsvt.reflections,") {
		t.Error("metrics missing the reflection counter")
	}
}

// The obs plane is the only exit recorder, so it must agree with the
// hypervisors' profiles exactly. For a nested cpuid run in each mode,
// count the exit spans per (recorder, reason): L0's direct exits on the
// L1 vCPU match L0.Prof, its nested exits of L2 match L0.NestedProf, and
// the guest hypervisor's exits on its own view of L2 match L1's profile.
func TestObsExitSpansMatchProfiles(t *testing.T) {
	for _, mode := range AllModes() {
		sess := NewSession()
		sess.SetObs(&obs.Options{})
		m := machine.NewNested(sess.config(mode))
		m.SetL2Workload(cpuidLoop(100, 0))
		sess.run(m)
		m.Shutdown()

		tr := m.Obs.Tracer
		var direct, nested, l1 hv.Profile
		for i := 0; i < tr.Contexts(); i++ {
			ring := tr.Ring(i)
			if ring.Total() > uint64(ring.Cap()) {
				t.Fatalf("%v: track %d wrapped; counts would be short", mode, i)
			}
			ring.Do(func(e obs.Event) {
				var p *hv.Profile
				var lvl uint8
				switch {
				case e.Kind == obs.KindNestedExit:
					p, lvl = &nested, uint8(m.Ns.L2VCPU.Lvl)
				case e.Kind == obs.KindVMExit && tr.Lookup(e.Label) == m.VcpuL1.Name:
					p, lvl = &direct, uint8(m.VcpuL1.Lvl)
				case e.Kind == obs.KindVMExit && tr.Lookup(e.Label) == m.VC12.Name:
					p, lvl = &l1, uint8(m.VC12.Lvl)
				case e.Kind == obs.KindVMExit:
					t.Fatalf("%v: exit span on unexpected vCPU %q", mode, tr.Lookup(e.Label))
				default:
					return
				}
				if e.Level != lvl {
					t.Fatalf("%v: %v span at level %d, want %d", mode, e.Kind, e.Level, lvl)
				}
				p.Count[e.Arg1]++
			})
		}
		for _, c := range []struct {
			name      string
			got, want *hv.Profile
		}{
			{"L0 direct", &direct, &m.L0.Prof},
			{"L0 nested", &nested, &m.L0.NestedProf},
			{"L1 direct", &l1, &m.L1HV.Prof},
		} {
			if c.got.Count != c.want.Count {
				t.Errorf("%v: %s exit spans per reason %v, profile %v", mode, c.name, c.got.Count, c.want.Count)
			}
		}
		if nested.Count == ([isa.NumExitReasons]uint64{}) {
			t.Errorf("%v: no nested exit spans recorded", mode)
		}
	}
}
