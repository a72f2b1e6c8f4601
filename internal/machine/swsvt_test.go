package machine

import (
	"testing"

	"svtsim/internal/apic"
	"svtsim/internal/hv"
	"svtsim/internal/sim"
	"svtsim/internal/swsvt"
)

// runBlockedScenario runs the §5.3 interrupt-deadlock scenario and
// reports whether the IPI to the blocked L1 main vCPU was handled.
func runBlockedScenario(t *testing.T, protocol bool) (handled bool, blockedEvents uint64) {
	t.Helper()
	cfg := DefaultConfig(hv.ModeSWSVt)
	cfg.BlockedProtocol = protocol
	ipiHandled := false
	// The L1 main vCPU's kernel IRQ handler: in the real scenario the
	// sender spins until this runs (a TLB-shootdown acknowledgement).
	cfg.L1IRQHook = func(vec int) {
		if vec == apic.VecIPI {
			ipiHandled = true
		}
	}
	m := NewNested(cfg)
	// Mid-run, a kernel thread in L1 (modelled at its source) sends an IPI
	// to the L1 main vCPU, which is blocked inside its VMRESUME while the
	// SVt-thread serves L2 traps.
	m.Eng.At(50*sim.Microsecond, func() {
		m.L0.InjectIRQ(m.VcpuL1, apic.VecIPI)
	})
	m.SetL2Workload(cpuidLoop(100))
	m.Run()
	m.Shutdown()
	return ipiHandled, m.Chan.BlockedEvents.Value()
}

func TestSVtBlockedProtocolDeliversIPI(t *testing.T) {
	handled, events := runBlockedScenario(t, true)
	if !handled {
		t.Fatal("with the §5.3 protocol the blocked vCPU must run its IPI handler")
	}
	if events == 0 {
		t.Fatal("the SVT_BLOCKED path must have been exercised")
	}
}

func TestWithoutBlockedProtocolIPIHangs(t *testing.T) {
	handled, events := runBlockedScenario(t, false)
	if handled {
		t.Fatal("without the protocol the blocked vCPU must never run its handler (the deadlock §5.3 describes)")
	}
	if events != 0 {
		t.Fatalf("no SVT_BLOCKED events expected, got %d", events)
	}
}

func TestSWSVtWaitPolicies(t *testing.T) {
	// Every wait policy and placement must complete the nested workload;
	// mwait at SMT must be the fastest placement for its policy.
	results := make(map[string]sim.Time)
	for _, pol := range []swsvt.Policy{swsvt.PolicyMwait, swsvt.PolicyPoll, swsvt.PolicyMutex} {
		for _, place := range []swsvt.Placement{swsvt.PlaceSMT, swsvt.PlaceCrossCore, swsvt.PlaceCrossNUMA} {
			cfg := DefaultConfig(hv.ModeSWSVt)
			cfg.WaitPolicy = pol
			cfg.Placement = place
			m := NewNested(cfg)
			m.SetL2Workload(cpuidLoop(100))
			m.Run()
			m.Shutdown()
			if m.L0.DeadlockDetected {
				t.Fatalf("pol=%v place=%v deadlocked", pol, place)
			}
			results[cfg.WaitPolicy.String()+"/"+cfg.Placement.String()] = m.Now()
		}
	}
	if !(results["mwait/smt"] < results["mwait/cross-numa"]) {
		t.Error("NUMA placement must be slower than SMT")
	}
}
