// go vet rejects iter.Pull under go.mod's go 1.22. The tag raises this
// file's language version alone; raising go.mod's would break the
// perfbench module, which requires this one.

//go:build go1.23

package cpu

import (
	"fmt"
	"iter"

	"svtsim/internal/isa"
	"svtsim/internal/ports"
	"svtsim/internal/sim"
	"svtsim/internal/vmcs"
)

// physIRQExit builds the EXTERNAL_INTERRUPT exit if the context's
// physical LAPIC has a pending vector and the VMCS asks for
// external-interrupt exiting; otherwise it reports false.
func (c *Core) physIRQExit(ctx ContextID, v *vmcs.VMCS) (isa.Exit, bool) {
	// Under SVt, external interrupts are steered to the visor context
	// (§3.1); otherwise each hardware thread takes its own.
	irq := ctx
	if c.svtOn {
		irq = 0
	}
	l := c.lapics[irq]
	if l == nil || !l.HasPending() {
		return isa.Exit{}, false
	}
	if v.Read(vmcs.PinControls)&vmcs.PinCtlExtIntExit == 0 {
		return isa.Exit{}, false
	}
	vec, _ := l.PendingVector()
	return isa.Exit{Reason: isa.ExitExternalInterrupt, Vector: vec}, true
}

// RunGuest enters the guest on ctx under v and executes it until a VM
// exit, which it returns. This is the hardware side of VMRESUME: the
// paper's hypervisors sit in a loop of RunGuest + handle. The guest's
// body resumes where its previous exit suspended it; a body that
// returns ends the session with the QualGuestDone exit.
func (c *Core) RunGuest(ctx ContextID, v *vmcs.VMCS, g *NativeGuest) isa.Exit {
	if g.finished {
		panic(fmt.Sprintf("cpu: %s resumed after it finished", g.Name))
	}
	c.enterGuest(ctx, v, g)
	g.port.VM = v
	if g.next == nil {
		g.next, g.stop = iter.Pull(g.run)
	}
	prev := c.running
	c.running = g.port
	defer func() { c.running = prev }()
	e, ok := g.next()
	if !ok {
		e = isa.Exit{Reason: isa.ExitVMCall, Qualification: QualGuestDone}
	}
	return c.exitGuest(ctx, v, e)
}

type killSentinel struct{}

// NativeGuest is the one guest model: real Go code running as a
// coroutine of the simulation. The code performs architectural actions
// through its Port, and any trapping instruction suspends the body and
// surfaces the VM exit to whoever executed VMRESUME, which resumes it
// with the next VMRESUME. A guest hypervisor's handler logic runs this
// way, which is how the same hypervisor implementation runs both as L0
// (on the real platform) and as L1 (on a virtualized platform whose
// privileged operations genuinely trap); so do the nested workloads,
// down to the §6.1 cpuid loop.
type NativeGuest struct {
	Name string

	body       func(*Port)
	port       *Port
	finished   bool
	parkedIdle bool

	// next resumes the body until its next exit; stop unwinds it. Both
	// come from iter.Pull on the first RunGuest.
	next  func() (isa.Exit, bool)
	stop  func()
	yield func(isa.Exit) bool
}

// NewNativeGuest creates a native guest bound to context ctx of core c.
// Configure the returned guest's Port (virtual LAPIC, IRQ handler) before
// the first RunGuest.
func NewNativeGuest(name string, c *Core, ctx ContextID, body func(*Port)) *NativeGuest {
	g := &NativeGuest{Name: name, body: body}
	g.port = &Port{core: c, guest: g, Ctx: ctx}
	return g
}

// Port returns the guest's architectural port.
func (g *NativeGuest) Port() *Port { return g.port }

// Finished reports whether the guest body has returned.
func (g *NativeGuest) Finished() bool { return g.finished }

// deliverIRQ delivers an injected vector to the guest's virtual LAPIC;
// the guest's kernel handler runs at its next instruction boundary. The
// vector comes from the VMCS entry-interruption field, so it bypasses
// the fault plane: it already survived its interconnect hop.
func (g *NativeGuest) deliverIRQ(vec int) {
	if g.port.VirtLAPIC != nil {
		g.port.VirtLAPIC.DeliverDirect(vec)
	}
}

// Kill unwinds a suspended guest body. It is a no-op for guests that
// never started or already finished.
func (g *NativeGuest) Kill() {
	if g.stop != nil {
		g.stop()
	}
}

// run is the guest's coroutine. A killed body unwinds through
// killSentinel; any other panic propagates to the caller of next.
func (g *NativeGuest) run(yield func(isa.Exit) bool) {
	g.yield = yield
	defer func() {
		g.finished = true
		if r := recover(); r != nil && r != (killSentinel{}) {
			panic(r)
		}
	}()
	g.body(g.port)
}

// Port is the architectural interface native guest code uses: execute
// instructions (which may trap), charge compute time, and receive virtual
// interrupts.
type Port struct {
	core  *Core
	guest *NativeGuest
	Ctx   ContextID
	VM    *vmcs.VMCS // controlling VMCS of the current session

	// VirtLAPIC is the guest's virtual interrupt controller; vectors
	// injected by the hypervisor land here.
	VirtLAPIC ports.IRQController
	// IRQHandler, when set, is the guest kernel's interrupt entry point; it
	// runs natively at instruction boundaries for each pending vector.
	IRQHandler func(vec int)

	inIRQ bool
}

// Park models the monitor/mwait wait of the SW SVt prototype: the thread
// stays in guest mode and stops fetching until woken. Control returns to
// the driver with a QualSVtIdle marker; no transition costs are charged
// (mwait keeps the SMT thread from consuming execution cycles — the whole
// point of §6.1's channel study).
func (p *Port) Park(qual uint64) {
	p.guest.parkedIdle = true
	p.trap(isa.Exit{Reason: isa.ExitVMCall, Qualification: qual})
	p.guest.parkedIdle = false
}

// Core returns the core the port executes on.
func (p *Port) Core() *Core { return p.core }

// Now reports virtual time.
func (p *Port) Now() sim.Time { return p.core.Eng.Now() }

// Charge accounts native compute work.
func (p *Port) Charge(d sim.Time) { p.core.Eng.Advance(d) }

// pollVirtIRQ runs the guest kernel's handler for any pending virtual
// vectors (instruction-boundary delivery).
func (p *Port) pollVirtIRQ() {
	if p.inIRQ || p.VirtLAPIC == nil || p.IRQHandler == nil {
		return
	}
	for {
		vec, ok := p.VirtLAPIC.PendingVector()
		if !ok {
			return
		}
		p.VirtLAPIC.Ack(vec)
		p.inIRQ = true
		p.core.Eng.Advance(p.core.Costs.GuestIRQHandler)
		p.IRQHandler(vec)
		p.inIRQ = false
	}
}

// PollIRQs forces virtual-interrupt delivery at the current point, as the
// kernel would on an sti/hlt boundary.
func (p *Port) PollIRQs() { p.pollVirtIRQ() }

// Compute charges d of guest work interruptibly: pending events fire on
// schedule, physical interrupts exit the guest mid-block (and the block
// resumes after re-entry), and virtual vectors run their handlers at the
// interruption points. Long-running guest code (video decoding, request
// processing) uses this instead of Charge so timer accuracy is preserved.
func (p *Port) Compute(d sim.Time) {
	eng := p.core.Eng
	for d > 0 {
		chunk := d
		if t, ok := eng.NextEventTime(); ok {
			if gap := t - eng.Now(); gap < chunk {
				chunk = gap
			}
		}
		if chunk > 0 {
			eng.Advance(chunk)
			d -= chunk
		}
		if eng.DispatchDue() == 0 && chunk == 0 {
			// No events fired and no time to burn against them: finish.
			eng.Advance(d)
			return
		}
		if e, ok := p.core.physIRQExit(p.Ctx, p.VM); ok {
			p.trap(e)
		}
		p.pollVirtIRQ()
	}
}

// ExecHLT executes a HLT with architectural wakeup semantics: pending
// virtual interrupts (including ones injected during the prologue's own
// external-interrupt trap) make the HLT complete immediately instead of
// sleeping — closing the classic lost-wakeup race between polling and
// halting.
func (p *Port) ExecHLT() {
	p.core.Eng.DispatchDue()
	if e, ok := p.core.physIRQExit(p.Ctx, p.VM); ok {
		p.trap(e)
	}
	if p.VirtLAPIC != nil && p.VirtLAPIC.HasPending() {
		return
	}
	res := p.core.Exec(p.Ctx, p.VM, isa.HLT())
	if res.Exit.Reason != isa.ExitNone {
		p.trap(res.Exit)
	}
}

// Exec executes one instruction on behalf of the native guest. Trapping
// instructions suspend the body until the hypervisor resumes the guest;
// the emulation result is then read from the guest's RAX per the
// hypervisor call convention.
func (p *Port) Exec(in isa.Instr) uint64 {
	p.core.Eng.DispatchDue()
	p.pollVirtIRQ()
	if e, ok := p.core.physIRQExit(p.Ctx, p.VM); ok {
		p.trap(e)
	}
	res := p.core.Exec(p.Ctx, p.VM, in)
	if res.Exit.Reason != isa.ExitNone {
		p.trap(res.Exit)
		return p.core.ReadGPR(p.Ctx, isa.RAX)
	}
	return res.Value
}

// trap suspends the guest, surfacing e as the VM exit of the current
// RunGuest session. Only the running guest can trap on its own port; a
// trap from any other context is a wiring bug and fails closed.
func (p *Port) trap(e isa.Exit) {
	if r := p.core.running; r != p {
		who := "no guest"
		if r != nil {
			who = r.guest.Name
		}
		panic(fmt.Sprintf("cpu: %s trapped on %s's port", who, p.guest.Name))
	}
	if !p.guest.yield(e) {
		panic(killSentinel{})
	}
}
