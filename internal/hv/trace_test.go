package hv

import (
	"testing"

	"svtsim/internal/cpu"
	"svtsim/internal/isa"
	"svtsim/internal/obs"
)

// The hypervisor records each handled exit as an obs span on the vCPU's
// hardware-context track, with its virtualization level.
func TestTraceExitEmitsToObs(t *testing.T) {
	h, _, _ := testStack()
	ot := obs.NewTracer(2, 16)
	h.SetObs(ot)

	g := &scriptGuest{acts: []cpu.Action{
		{Kind: cpu.ActInstr, Instr: isa.CPUID(1)},
	}}
	vc := NewVCPU("g", 0, guestVMCS(), g, 1)
	h.RunLoop(vc)

	if ot.Total() == 0 {
		t.Fatal("obs tracer recorded nothing")
	}
	var sawCPUID bool
	ot.Ring(0).Do(func(e obs.Event) {
		if e.Kind == obs.KindVMExit && isa.ExitReason(e.Arg1) == isa.ExitCPUID {
			sawCPUID = true
			if e.Level != 1 {
				t.Errorf("CPUID exit at level %d, want 1", e.Level)
			}
			if ot.Lookup(e.Label) != "g" {
				t.Errorf("label = %q, want vCPU name", ot.Lookup(e.Label))
			}
		}
	})
	if !sawCPUID {
		t.Fatal("no CPUID vmexit span on the vCPU's context track")
	}
}
