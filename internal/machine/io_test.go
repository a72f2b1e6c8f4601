package machine

import (
	"runtime"
	"testing"

	"svtsim/internal/guest"
	"svtsim/internal/hv"
	"svtsim/internal/isa"
	"svtsim/internal/netsim"
	"svtsim/internal/sim"
	"svtsim/internal/stats"
	"svtsim/internal/workload"
)

// netRRMachine runs netperf TCP_RR on the full nested stack.
func netRRMachine(t *testing.T, mode hv.Mode, n int) (*workload.NetRR, *Machine) {
	t.Helper()
	cfg := DefaultConfig(mode)
	io := WireNestedIO(&cfg, DefaultIOParams())
	m := NewNested(cfg)
	// External netperf peer: echoes 1-byte responses.
	io.NIC.Peer = &netsim.EchoPeer{
		Eng:         m.Eng,
		Back:        io.LinkIn,
		Dst:         io.NIC,
		ServiceTime: 5 * sim.Microsecond,
		RespSize:    1,
	}
	w := &workload.NetRR{N: n, ReqSize: 1, TCPModel: true, SMP: true}
	m.InstallL2(io, true, false, func(env *guest.Env) { w.Run(env) })
	m.Run()
	m.Shutdown()
	if m.L0.DeadlockDetected {
		t.Fatal("deadlock")
	}
	if len(w.Lat) != n {
		t.Fatalf("completed %d/%d transactions", len(w.Lat), n)
	}
	return w, m
}

func TestNestedNetRR(t *testing.T) {
	const n = 100
	w, m := netRRMachine(t, hv.ModeBaseline, n)
	s, err := stats.Summarize(w.Lat)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("baseline TCP_RR: mean=%.1fus p50=%.1f p99=%.1f (n=%d)", s.Mean, s.P50, s.P99, s.N)
	t.Logf("L0 profile: misconfig=%.1f%% msr=%.1f%% extint=%.1f%%",
		100*m.L0.NestedProf.Share(isa.ExitEPTMisconfig), 100*m.L0.NestedProf.Share(isa.ExitMSRWrite), 100*m.L0.NestedProf.Share(isa.ExitExternalInterrupt))
	if s.Mean < 50 || s.Mean > 400 {
		t.Errorf("baseline RTT = %.1fus, want O(163us)", s.Mean)
	}

	wSW, _ := netRRMachine(t, hv.ModeSWSVt, n)
	wHW, _ := netRRMachine(t, hv.ModeHWSVt, n)
	sw := stats.Mean(wSW.Lat)
	hw := stats.Mean(wHW.Lat)
	t.Logf("TCP_RR: base=%.1f sw=%.1f (%.2fx) hw=%.1f (%.2fx)", s.Mean, sw, s.Mean/sw, hw, s.Mean/hw)
	if !(hw < sw && sw < s.Mean) {
		t.Errorf("ordering violated: base=%.1f sw=%.1f hw=%.1f", s.Mean, sw, hw)
	}
}

// Run + Shutdown of a nested machine with I/O leaves no goroutine
// behind: every native guest (L1-main, the SVt-thread, L2) is unwound,
// including the ones suspended mid-trap when the workload finished.
func TestShutdownLeavesNoGoroutines(t *testing.T) {
	for _, mode := range []hv.Mode{hv.ModeBaseline, hv.ModeSWSVt, hv.ModeHWSVt} {
		t.Run(mode.String(), func(t *testing.T) {
			before := runtime.NumGoroutine()
			cfg := DefaultConfig(mode)
			io := WireNestedIO(&cfg, DefaultIOParams())
			m := NewNested(cfg)
			io.NIC.Peer = &netsim.EchoPeer{
				Eng: m.Eng, Back: io.LinkIn, Dst: io.NIC,
				ServiceTime: 5 * sim.Microsecond, RespSize: 1,
			}
			w := &workload.NetRR{N: 20, ReqSize: 1, TCPModel: true}
			m.InstallL2(io, true, true, func(env *guest.Env) {
				w.Run(env)
				if !env.Blk.Write(8, make([]byte, 512)) {
					t.Error("nested write failed")
				}
			})
			m.Run()
			m.Shutdown()
			if len(w.Lat) != w.N {
				t.Fatalf("completed %d/%d transactions", len(w.Lat), w.N)
			}
			if after := runtime.NumGoroutine(); after != before {
				t.Fatalf("%d goroutines before building, %d after Shutdown", before, after)
			}
		})
	}
}
