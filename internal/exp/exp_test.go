package exp

import (
	"strings"
	"testing"

	"svtsim/internal/cpu"
	"svtsim/internal/hv"
	"svtsim/internal/machine"
	"svtsim/internal/sim"
	"svtsim/internal/swsvt"
)

func speedup(base, x float64) float64 { return base / x }

func TestFigure7NetLatency(t *testing.T) {
	sess := NewSession()
	base := sess.NetLatency(hv.ModeBaseline, 60)
	sw := sess.NetLatency(hv.ModeSWSVt, 60)
	hw := sess.NetLatency(hv.ModeHWSVt, 60)
	t.Logf("net lat: base=%.1fus sw=%.1f (%.2fx) hw=%.1f (%.2fx)",
		base.MeanUs, sw.MeanUs, speedup(base.MeanUs, sw.MeanUs), hw.MeanUs, speedup(base.MeanUs, hw.MeanUs))
	if !(hw.MeanUs < sw.MeanUs && sw.MeanUs < base.MeanUs) {
		t.Errorf("ordering violated")
	}
	// Paper (Figure 7): SW 1.10x, HW 2.38x. Shape check: SW modest, HW large.
	if s := speedup(base.MeanUs, sw.MeanUs); s < 1.03 || s > 1.45 {
		t.Errorf("SW net-latency speedup %.2fx out of plausible range", s)
	}
	if s := speedup(base.MeanUs, hw.MeanUs); s < 1.35 {
		t.Errorf("HW net-latency speedup %.2fx too small", s)
	}
}

func TestFigure7NetBandwidth(t *testing.T) {
	sess := NewSession()
	d := 50 * sim.Millisecond
	base := sess.NetBandwidth(hv.ModeBaseline, d)
	sw := sess.NetBandwidth(hv.ModeSWSVt, d)
	hw := sess.NetBandwidth(hv.ModeHWSVt, d)
	t.Logf("net bw: base=%.0f Mbps sw=%.0f (%.2fx) hw=%.0f (%.2fx)",
		base.Mbps, sw.Mbps, sw.Mbps/base.Mbps, hw.Mbps, hw.Mbps/base.Mbps)
	// Paper: baseline ~9387 Mbps (near the physical 10 Gb/s limit),
	// SW 1.00x, HW 1.12x (capped by the wire in any real system).
	if base.Mbps < 7000 || base.Mbps > 10000 {
		t.Errorf("baseline stream = %.0f Mbps, want near line rate", base.Mbps)
	}
	if sw.Mbps < base.Mbps*0.98 {
		t.Errorf("SW SVt must not lose bandwidth: %.0f vs %.0f", sw.Mbps, base.Mbps)
	}
	if hw.Mbps < sw.Mbps*0.98 {
		t.Errorf("HW SVt must not lose bandwidth vs SW")
	}
	if hw.Mbps > 10000 {
		t.Errorf("nothing can beat the wire: %.0f Mbps", hw.Mbps)
	}
}

func TestFigure7DiskLatency(t *testing.T) {
	sess := NewSession()
	for _, write := range []bool{false, true} {
		base := sess.DiskLatency(hv.ModeBaseline, write, 60)
		sw := sess.DiskLatency(hv.ModeSWSVt, write, 60)
		hw := sess.DiskLatency(hv.ModeHWSVt, write, 60)
		t.Logf("disk lat write=%v: base=%.1fus sw=%.1f (%.2fx) hw=%.1f (%.2fx)",
			write, base.MeanUs, sw.MeanUs, speedup(base.MeanUs, sw.MeanUs), hw.MeanUs, speedup(base.MeanUs, hw.MeanUs))
		if !(hw.MeanUs < sw.MeanUs && sw.MeanUs < base.MeanUs) {
			t.Errorf("write=%v ordering violated", write)
		}
	}
}

func TestFigure7DiskBandwidth(t *testing.T) {
	sess := NewSession()
	for _, write := range []bool{false, true} {
		base := sess.DiskBandwidth(hv.ModeBaseline, write, 100)
		sw := sess.DiskBandwidth(hv.ModeSWSVt, write, 100)
		hw := sess.DiskBandwidth(hv.ModeHWSVt, write, 100)
		t.Logf("disk bw write=%v: base=%.0f KB/s sw=%.0f (%.2fx) hw=%.0f (%.2fx)",
			write, base.KBs, sw.KBs, sw.KBs/base.KBs, hw.KBs, hw.KBs/base.KBs)
		if !(hw.KBs > sw.KBs && sw.KBs > base.KBs) {
			t.Errorf("write=%v ordering violated", write)
		}
	}
}

func TestFigure8MemcachedShape(t *testing.T) {
	sess := NewSession()
	d := 300 * sim.Millisecond
	// At low load both systems meet the SLA; at high load the baseline's
	// 99th percentile blows past 500us while SVt still holds.
	lowB := sess.Memcached(hv.ModeBaseline, 4000, d)
	lowS := sess.Memcached(hv.ModeSWSVt, 4000, d)
	t.Logf("4k qps: base p99=%.0fus avg=%.0f | svt p99=%.0fus avg=%.0f", lowB.P99Us, lowB.AvgUs, lowS.P99Us, lowS.AvgUs)
	if lowB.P99Us > 500 {
		t.Errorf("baseline must meet the SLA at low load, p99=%.0fus", lowB.P99Us)
	}
	highB := sess.Memcached(hv.ModeBaseline, 16000, d)
	highS := sess.Memcached(hv.ModeSWSVt, 16000, d)
	t.Logf("16k qps: base p99=%.0fus avg=%.0f | svt p99=%.0fus avg=%.0f", highB.P99Us, highB.AvgUs, highS.P99Us, highS.AvgUs)
	if highB.P99Us < 500 {
		t.Errorf("baseline should violate the SLA at high load, p99=%.0fus", highB.P99Us)
	}
	if highS.P99Us > highB.P99Us {
		t.Errorf("SVt must improve tail latency under load")
	}
}

func TestFigure9TPCCShape(t *testing.T) {
	sess := NewSession()
	d := 400 * sim.Millisecond
	base := sess.TPCC(hv.ModeBaseline, d)
	sw := sess.TPCC(hv.ModeSWSVt, d)
	t.Logf("tpcc: base=%.2f ktpm svt=%.2f (%.2fx)", base, sw, sw/base)
	if sw <= base {
		t.Errorf("SVt must improve TPC-C throughput: %.2f vs %.2f", sw, base)
	}
	// Paper: 1.18x. Accept a generous shape band.
	if r := sw / base; r < 1.04 || r > 1.45 {
		t.Errorf("TPC-C speedup %.2fx out of plausible range (paper: 1.18x)", r)
	}
}

func TestFigure10VideoShape(t *testing.T) {
	sess := NewSession()
	// 24 FPS: nobody drops (shortened run). 120 FPS: the baseline drops
	// more than SVt (Figure 10 reports 40 vs 0.65x at full length).
	b24 := sess.VideoN(hv.ModeBaseline, 24, 24*60)
	if b24.Dropped != 0 {
		t.Errorf("24 FPS baseline dropped %d frames, want 0", b24.Dropped)
	}
	const frames = 12000 // 100 s of playback keeps the test quick
	b120 := sess.VideoN(hv.ModeBaseline, 120, frames)
	s120 := sess.VideoN(hv.ModeSWSVt, 120, frames)
	t.Logf("video 120fps (%d frames): base dropped=%d svt dropped=%d", frames, b120.Dropped, s120.Dropped)
	if b120.Dropped == 0 {
		t.Errorf("baseline at 120 FPS should drop frames")
	}
	if s120.Dropped >= b120.Dropped {
		t.Errorf("SVt must drop fewer frames: %d vs %d", s120.Dropped, b120.Dropped)
	}
}

func TestCPUIDFigure6(t *testing.T) {
	sess := NewSession()
	l0 := sess.CPUIDNative(200)
	l1 := sess.CPUIDSingleLevel(200)
	l2 := sess.CPUIDNested(hv.ModeBaseline, 500)
	sw := sess.CPUIDNested(hv.ModeSWSVt, 500)
	hwr := sess.CPUIDNested(hv.ModeHWSVt, 500)
	t.Logf("fig6: L0=%v L1=%v L2=%v SW=%v HW=%v", l0.PerOp, l1.PerOp, l2.PerOp, sw.PerOp, hwr.PerOp)
	if !(l0.PerOp < l1.PerOp && l1.PerOp < hwr.PerOp && hwr.PerOp < sw.PerOp && sw.PerOp < l2.PerOp) {
		t.Error("Figure 6 ordering violated")
	}
}

func TestChannelStudyShape(t *testing.T) {
	sess := NewSession()
	pts := sess.ChannelStudy(150, []sim.Time{0, 20 * sim.Microsecond})
	get := func(pol swsvt.Policy, place swsvt.Placement, wl sim.Time) sim.Time {
		for _, p := range pts {
			if p.Policy == pol && p.Placement == place && p.Workload == wl {
				return p.PerOp
			}
		}
		t.Fatalf("missing point %v/%v/%v", pol, place, wl)
		return 0
	}
	// §6.1's measurable conclusions on the cpuid flow:
	// "Polling offers very little acceleration, since the time between VM
	// traps in L2 is always large enough that polling's overheads shadow
	// its low response time. In contrast, the mwait implementation offers
	// a reduction [~1.23x]."
	pollSMT0 := get(swsvt.PolicyPoll, swsvt.PlaceSMT, 0)
	mwaitSMT0 := get(swsvt.PolicyMwait, swsvt.PlaceSMT, 0)
	if !(mwaitSMT0 < pollSMT0) {
		t.Errorf("mwait (%v) must beat polling (%v): polling steals sibling cycles", mwaitSMT0, pollSMT0)
	}
	base := sess.CPUIDNested(hv.ModeBaseline, 150).PerOp
	if sp := float64(base) / float64(pollSMT0); sp > 1.12 {
		t.Errorf("polling should offer very little acceleration, got %.2fx", sp)
	}
	if sp := float64(base) / float64(mwaitSMT0); sp < 1.15 {
		t.Errorf("mwait should offer a clear reduction, got %.2fx", sp)
	}
	// mwait is at least as good as mutex on this flow (inter-trap gaps
	// exceed the mutex spin grace, so the mutex pays kernel wakeups).
	wl := 20 * sim.Microsecond
	mwaitSMTBig := get(swsvt.PolicyMwait, swsvt.PlaceSMT, wl) - wl
	mutexSMTBig := get(swsvt.PolicyMutex, swsvt.PlaceSMT, wl) - wl
	if !(mwaitSMTBig <= mutexSMTBig) {
		t.Errorf("mwait (%v) should be at least as good as mutex (%v)", mwaitSMTBig, mutexSMTBig)
	}
	// NUMA placement costs up to an order of magnitude in response latency.
	mwaitNUMA := get(swsvt.PolicyMwait, swsvt.PlaceCrossNUMA, 0)
	if float64(mwaitNUMA) < 1.3*float64(mwaitSMT0) {
		t.Errorf("cross-NUMA (%v) must be far worse than SMT (%v)", mwaitNUMA, mwaitSMT0)
	}
}

// A panic on a native-guest goroutine (here the SW-SVt thread's setup of
// L1's devices) is contained like any simulation panic: it reaches the
// run's caller stamped with the seeds, and the machine's other parked
// guests are unwound rather than leaked.
func TestGuestPanicIsContained(t *testing.T) {
	sess := NewSession()
	cfg := sess.config(hv.ModeSWSVt)
	cfg.WireL1 = func(*machine.Machine, *hv.Hypervisor, *hv.VirtualPlatform, *cpu.Port) {
		panic("l1 device bug")
	}
	m := machine.NewNested(cfg)
	m.SetL2Workload(cpuidLoop(10, 0))
	got := func() (r any) {
		defer func() { r = recover() }()
		sess.run(m)
		return nil
	}()
	msg, _ := got.(string)
	if !strings.Contains(msg, "exp: run failed (seed=") || !strings.Contains(msg, "l1 device bug") {
		t.Fatalf("recovered %v, want the annotated guest panic", got)
	}
	if !m.L1Guest.Finished() || !m.SVtGuest.Finished() {
		t.Fatalf("guests left running: L1 finished=%v, SVt-thread finished=%v",
			m.L1Guest.Finished(), m.SVtGuest.Finished())
	}
}
