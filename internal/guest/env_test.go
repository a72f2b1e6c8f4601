package guest

import (
	"testing"

	"svtsim/internal/cost"
	"svtsim/internal/cpu"
	"svtsim/internal/ept"
	"svtsim/internal/isa"
	"svtsim/internal/mem"
	"svtsim/internal/sim"
	"svtsim/internal/vmcs"
)

func testEnv() *Env {
	host := mem.New(1 << 22)
	tbl := ept.New("t")
	if err := tbl.Map(0, 0, 1<<22, ept.PermRW); err != nil {
		panic(err)
	}
	return NewEnv(nil, ept.NewView(host, tbl), 0x1000, 1<<20)
}

func TestAllocAligned(t *testing.T) {
	e := testEnv()
	a := e.Alloc(3)
	b := e.Alloc(5)
	if a%8 != 0 || b%8 != 0 {
		t.Fatalf("allocations not aligned: %#x %#x", a, b)
	}
	if b < a+3 {
		t.Fatal("allocations overlap")
	}
}

func TestAllocFreeRecycles(t *testing.T) {
	e := testEnv()
	a := e.Alloc(64)
	e.Free(a, 64)
	b := e.Alloc(64)
	if b != a {
		t.Fatalf("freed buffer not recycled: %#x vs %#x", b, a)
	}
	// Different bucket must not reuse it.
	c := e.Alloc(128)
	if c == a {
		t.Fatal("bucket mixing")
	}
}

func TestAllocRecyclingBoundsArena(t *testing.T) {
	e := testEnv()
	// Alloc/free the same size repeatedly: the arena must not grow.
	first := e.Alloc(4096)
	e.Free(first, 4096)
	for i := 0; i < 10000; i++ {
		g := e.Alloc(4096)
		if g != first {
			t.Fatalf("iteration %d: arena grew (%#x vs %#x)", i, g, first)
		}
		e.Free(g, 4096)
	}
}

func TestAllocExhaustionPanics(t *testing.T) {
	e := NewEnv(nil, nil, 0, 128)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on exhaustion")
		}
	}()
	e.Alloc(64)
	e.Alloc(65)
}

func TestIRQDispatchRouting(t *testing.T) {
	e := testEnv()
	var got []string
	e.Net = &NetDriver{Env: e, Vector: 0x24}
	e.Blk = &BlkDriver{Env: e, Vector: 0x25}
	e.Timer = &TimerDriver{Env: e, Vector: 0xEC, OnFire: func() { got = append(got, "timer") }}
	d := e.IRQDispatch()
	d(0xEC)
	if len(got) != 1 || got[0] != "timer" {
		t.Fatalf("timer dispatch failed: %v", got)
	}
	d(0x99) // unknown vectors are ignored
	if e.Timer.Fired() != 1 {
		t.Fatalf("fired = %d", e.Timer.Fired())
	}
}

// Kernel code traps on whichever of its VM's vCPUs calls it; another
// VM's guest calling it fails closed on the environment's own port.
func TestEnvExecTrapsOnCallingVCPU(t *testing.T) {
	costs := cost.Baseline()
	c := cpu.New(sim.New(), &costs, 3, mem.New(1<<20))
	var env *Env
	svt := cpu.NewNativeGuest("L1-svt", c, 1, func(p *cpu.Port) {
		for {
			p.Exec(isa.CPUID(0))
		}
	})
	l1main := cpu.NewNativeGuest("L1-main", c, 0, func(*cpu.Port) { env.Exec(isa.CPUID(7)) })
	l2 := cpu.NewNativeGuest("L2", c, 2, func(*cpu.Port) { env.Exec(isa.CPUID(7)) })
	defer func() {
		for _, g := range []*cpu.NativeGuest{svt, l1main, l2} {
			g.Kill()
		}
	}()
	env = NewEnv(svt.Port(), nil, 0, 0)
	env.VCPUs = append(env.VCPUs, l1main.Port())
	vm := func(name string) *vmcs.VMCS {
		v := vmcs.New(name)
		v.VMLevel = 1
		return v
	}

	if e := c.RunGuest(1, vm("vmcs01-svt"), svt); e.Reason != isa.ExitCPUID {
		t.Fatalf("exit = %v", e)
	}
	if e := c.RunGuest(0, vm("vmcs01"), l1main); e.Reason != isa.ExitCPUID || e.Qualification != 7 {
		t.Fatalf("L1-main's driver call: exit = %v, want its own CPUID trap", e)
	}
	got := func() (r any) {
		defer func() { r = recover() }()
		c.RunGuest(2, vm("vmcs02"), l2)
		return nil
	}()
	if want := "cpu: L2 trapped on L1-svt's port"; got != want {
		t.Fatalf("panic = %v, want %q", got, want)
	}
}
