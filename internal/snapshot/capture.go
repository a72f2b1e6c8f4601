package snapshot

import (
	"encoding/binary"
	"fmt"
	"sort"

	"svtsim/internal/blk"
	"svtsim/internal/cpu"
	"svtsim/internal/ept"
	"svtsim/internal/hv"
	"svtsim/internal/isa"
	"svtsim/internal/machine"
	"svtsim/internal/mem"
	"svtsim/internal/ports"
	"svtsim/internal/swsvt"
	"svtsim/internal/virtio"
	"svtsim/internal/vmcs"
)

// entry is one section of the capture/restore plan. Capture runs every
// save; Restore matches sections to the identical plan and runs every
// load, so the two directions can never enumerate different state.
type entry struct {
	name string
	save func(w *writer)
	load func(r *reader)
}

// plan enumerates the machine's state in fixed section order. The same
// nil-structure (mode, wired devices, booted drivers) yields the same
// plan, which is what makes a snapshot restorable: into the machine it
// came from, or into a freshly built machine of identical configuration.
//
// Execution contexts (suspended native guests, in-flight engine events such
// as a packet on the wire or a pending disk completion) are not part of
// the plan: capture is defined at quiescent op boundaries, and restore
// has write-back semantics — architectural state is replaced while
// execution continues, which is exactly what a live migration moving
// state between identical hosts needs.
func plan(m *machine.Machine, io *machine.IOStack) []entry {
	nctx := m.Core.Contexts()
	var es []entry
	add := func(name string, save func(w *writer), load func(r *reader)) {
		es = append(es, entry{name: name, save: save, load: load})
	}

	add("meta", func(w *writer) {
		w.word(uint64(m.Cfg.Mode))
		w.word(uint64(nctx))
	}, func(r *reader) {
		if mode := r.word(); r.err == nil && mode != uint64(m.Cfg.Mode) {
			r.err = fmt.Errorf("snapshot: mode mismatch: snapshot %v, machine %v", hv.Mode(mode), m.Cfg.Mode)
		}
		if n := r.word(); r.err == nil && n != uint64(nctx) {
			r.err = fmt.Errorf("snapshot: context-count mismatch: snapshot %d, machine %d", n, nctx)
		}
	})

	add("core/gpr", func(w *writer) {
		for c := 0; c < nctx; c++ {
			for g := 0; g < int(isa.NumGPR); g++ {
				w.word(m.Core.ReadGPR(cpu.ContextID(c), isa.Reg(g)))
			}
		}
	}, func(r *reader) {
		for c := 0; c < nctx; c++ {
			for g := 0; g < int(isa.NumGPR); g++ {
				m.Core.WriteGPR(cpu.ContextID(c), isa.Reg(g), r.word())
			}
		}
	})

	for _, v := range vmcsList(m) {
		v := v
		add("vmcs/"+v.name, func(w *writer) { putVMCS(w, v.v) }, func(r *reader) { getVMCS(r, v.v) })
	}
	for _, t := range eptList(m) {
		t := t
		add("ept/"+t.name, func(w *writer) { putEPT(w, t.t) }, func(r *reader) { getEPT(r, t.t) })
	}
	irqPrefix := m.Cfg.Port.IRQSectionPrefix()
	for _, l := range irqList(m, nctx) {
		l := l
		add(irqPrefix+"/"+l.name, func(w *writer) { putIRQ(w, l.l) }, func(r *reader) { getIRQ(r, l.l) })
	}
	for _, v := range vcpuList(m) {
		v := v
		add("vcpu/"+v.name, func(w *writer) { putVCPU(w, v.vc) }, func(r *reader) { getVCPU(r, v.vc) })
	}

	add("mem/host", func(w *writer) {
		putPages(w, m.HostMem.SavePages())
	}, func(r *reader) {
		if pages, ok := getPages(r); ok {
			m.HostMem.LoadPages(pages)
		}
	})

	if io != nil && io.Disk != nil {
		add("blk/disk", func(w *writer) {
			st := io.Disk.SaveState()
			w.grow(pagesWords(len(st.Pages)) + 1)
			putPages(w, st.Pages)
			w.time(st.BusyUntil)
		}, func(r *reader) {
			pages, ok := getPages(r)
			busy := r.time()
			if ok && r.err == nil {
				io.Disk.LoadState(blk.DiskState{Pages: pages, BusyUntil: busy})
			}
		})
	}

	for _, q := range queueList(io) {
		q := q
		add(q.name, func(w *writer) { putQueue(w, q.q) }, func(r *reader) { getQueue(r, q.q) })
	}

	if m.Chan != nil {
		add("swsvt", func(w *writer) {
			putRing(w, m.Chan.ToSVt)
			putRing(w, m.Chan.FromSVt)
			cs := m.Chan.SaveState()
			w.time(cs.LastReturn)
			w.boolWord(cs.Stopped)
			w.word(m.SVtThread.Handled)
			for _, n := range m.SVtThread.HandledByReason {
				w.word(n)
			}
		}, func(r *reader) {
			getRing(r, m.Chan.ToSVt)
			getRing(r, m.Chan.FromSVt)
			cs := swsvt.ChannelState{LastReturn: r.time(), Stopped: r.boolWord()}
			handled := r.word()
			var byReason [isa.NumExitReasons]uint64
			for i := range byReason {
				byReason[i] = r.word()
			}
			if r.err == nil {
				m.Chan.LoadState(cs)
				m.SVtThread.Handled = handled
				m.SVtThread.HandledByReason = byReason
			}
		})
	}

	return es
}

// Capture serializes the machine's architectural state. io may be nil
// (or an empty stack) for machines without wired I/O.
func Capture(m *machine.Machine, io *machine.IOStack) *Snapshot {
	es := plan(m, io)
	snap := &Snapshot{Sections: make([]Section, 0, len(es))}
	for _, e := range es {
		w := &writer{}
		e.save(w)
		snap.Sections = append(snap.Sections, Section{Name: e.name, Words: w.words})
	}
	return snap
}

// Restore writes a snapshot's state back into the machine. The machine
// must present the identical plan (same mode, same wired devices); a
// structural mismatch or a malformed section is an error and the
// machine may be partially restored — callers treat that as a failed
// migration attempt.
func Restore(m *machine.Machine, io *machine.IOStack, snap *Snapshot) error {
	es := plan(m, io)
	if len(es) != len(snap.Sections) {
		return fmt.Errorf("snapshot: machine wants %d sections, snapshot has %d", len(es), len(snap.Sections))
	}
	for i, e := range es {
		sec := snap.Sections[i]
		if sec.Name != e.name {
			return fmt.Errorf("snapshot: section %d is %q, machine wants %q", i, sec.Name, e.name)
		}
		r := &reader{name: e.name, sec: sec.Words}
		e.load(r)
		if err := r.fin(); err != nil {
			return err
		}
	}
	return nil
}

// RoundTrip captures, restores, and re-captures, returning both digests.
// Equal digests are the restore-fidelity guarantee the migration state
// machine relies on; the differential harness asserts it at every
// migrate point.
func RoundTrip(m *machine.Machine, io *machine.IOStack) (before, after uint64, err error) {
	snap := Capture(m, io)
	if err := Restore(m, io, snap); err != nil {
		return snap.Digest(), 0, err
	}
	return snap.Digest(), Capture(m, io).Digest(), nil
}

type namedVMCS struct {
	name string
	v    *vmcs.VMCS
}

func vmcsList(m *machine.Machine) []namedVMCS {
	var vs []namedVMCS
	add := func(name string, v *vmcs.VMCS) {
		if v != nil {
			vs = append(vs, namedVMCS{name, v})
		}
	}
	if m.VcpuL1 != nil {
		add("01", m.VcpuL1.VMCS)
	}
	if m.VcpuSVt != nil {
		add("01-svt", m.VcpuSVt.VMCS)
	}
	if m.VC12 != nil {
		add("12", m.VC12.VMCS)
	}
	if m.Ns != nil {
		add("02", m.Ns.Vmcs02)
	}
	return vs
}

type namedEPT struct {
	name string
	t    *ept.Table
}

func eptList(m *machine.Machine) []namedEPT {
	var ts []namedEPT
	add := func(name string, t *ept.Table) {
		if t != nil {
			ts = append(ts, namedEPT{name, t})
		}
	}
	add("01", m.Ept01)
	add("12", m.Ept12)
	add("02", m.Ept02)
	return ts
}

type namedIRQ struct {
	name string
	l    ports.IRQController
}

func irqList(m *machine.Machine, nctx int) []namedIRQ {
	var ls []namedIRQ
	add := func(name string, l ports.IRQController) {
		if l != nil {
			ls = append(ls, namedIRQ{name, l})
		}
	}
	for c := 0; c < nctx; c++ {
		add(fmt.Sprintf("ctx%d", c), m.Core.LAPIC(cpu.ContextID(c)))
	}
	if m.VcpuL1 != nil {
		add("l1", m.VcpuL1.VirtLAPIC)
	}
	if m.VcpuSVt != nil {
		add("svt", m.VcpuSVt.VirtLAPIC)
	}
	if m.VC12 != nil {
		add("vc12", m.VC12.VirtLAPIC)
	}
	add("l2", m.L2LAPIC())
	return ls
}

type namedVCPU struct {
	name string
	vc   *hv.VCPU
}

func vcpuList(m *machine.Machine) []namedVCPU {
	var vs []namedVCPU
	add := func(name string, vc *hv.VCPU) {
		if vc != nil {
			vs = append(vs, namedVCPU{name, vc})
		}
	}
	add("l1", m.VcpuL1)
	add("svt", m.VcpuSVt)
	add("vc12", m.VC12)
	if m.Ns != nil {
		add("l2", m.Ns.L2VCPU)
	}
	return vs
}

type namedQueue struct {
	name string
	q    *virtio.Queue
}

func queueList(io *machine.IOStack) []namedQueue {
	if io == nil {
		return nil
	}
	var qs []namedQueue
	add := func(name string, q *virtio.Queue) {
		if q != nil {
			qs = append(qs, namedQueue{name, q})
		}
	}
	if io.L2Env != nil {
		if io.L2Env.Net != nil {
			add("vq/l2-net-tx", io.L2Env.Net.TX)
			add("vq/l2-net-rx", io.L2Env.Net.RX)
		}
		if io.L2Env.Blk != nil {
			add("vq/l2-blk", io.L2Env.Blk.Q)
		}
	}
	if io.L1NetDrv != nil {
		add("vq/l1-net-tx", io.L1NetDrv.TX)
		add("vq/l1-net-rx", io.L1NetDrv.RX)
	}
	if io.L1BlkDrv != nil {
		add("vq/l1-blk", io.L1BlkDrv.Q)
	}
	if io.L1Net != nil {
		add("vq/l1-dev-net-tx", io.L1Net.Queue(virtio.NetQTX))
		add("vq/l1-dev-net-rx", io.L1Net.Queue(virtio.NetQRX))
	}
	if io.L1Blk != nil {
		add("vq/l1-dev-blk", io.L1Blk.Queue(0))
	}
	if io.L0Net != nil {
		add("vq/l0-dev-net-tx", io.L0Net.Queue(virtio.NetQTX))
		add("vq/l0-dev-net-rx", io.L0Net.Queue(virtio.NetQRX))
	}
	if io.L0Blk != nil {
		add("vq/l0-dev-blk", io.L0Blk.Queue(0))
	}
	return qs
}

func putVMCS(w *writer, v *vmcs.VMCS) {
	st := v.SaveState()
	for _, f := range st.Fields {
		w.word(f)
	}
	for _, g := range st.GPRs {
		w.word(g)
	}
	w.boolWord(st.ShadowEnabled)
	w.word(uint64(len(st.ExitingMSRs)))
	for _, a := range st.ExitingMSRs {
		w.word(uint64(a))
	}
	w.word(uint64(len(st.Dirty)))
	for _, f := range st.Dirty {
		w.word(uint64(f))
	}
}

func getVMCS(r *reader, v *vmcs.VMCS) {
	var st vmcs.State
	for i := range st.Fields {
		st.Fields[i] = r.word()
	}
	for i := range st.GPRs {
		st.GPRs[i] = r.word()
	}
	st.ShadowEnabled = r.boolWord()
	for i, n := 0, r.count(1); i < n; i++ {
		st.ExitingMSRs = append(st.ExitingMSRs, uint32(r.word()))
	}
	for i, n := 0, r.count(1); i < n; i++ {
		st.Dirty = append(st.Dirty, vmcs.Field(r.word()))
	}
	if r.err == nil {
		v.LoadState(st)
	}
}

func putEPT(w *writer, t *ept.Table) {
	st := t.SaveState()
	w.grow(3 + 3*len(st.Pages) + 3*len(st.Devs))
	w.word(uint64(len(st.Pages)))
	for _, p := range st.Pages {
		w.word(p.GFN)
		w.word(p.HostPage)
		w.word(uint64(p.Perm))
	}
	w.word(uint64(len(st.Devs)))
	for _, d := range st.Devs {
		w.word(d.Base)
		w.word(d.Size)
		w.word(d.Dev)
	}
	w.word(st.Epoch)
}

func getEPT(r *reader, t *ept.Table) {
	var st ept.State
	n := r.count(3)
	st.Pages = make([]ept.PageState, 0, n)
	for i := 0; i < n; i++ {
		st.Pages = append(st.Pages, ept.PageState{GFN: r.word(), HostPage: r.word(), Perm: ept.Perm(r.word())})
	}
	for i, n := 0, r.count(3); i < n; i++ {
		st.Devs = append(st.Devs, ept.DevState{Base: r.word(), Size: r.word(), Dev: r.word()})
	}
	st.Epoch = r.word()
	if r.err == nil {
		t.LoadState(st)
	}
}

// putIRQ/getIRQ delegate to the port's own codec. For the x86 port the
// words (pending count, pending vectors ascending, deadline) and the
// "lapic/..." section names are byte-identical to the pre-ports format.
func putIRQ(w *writer, l ports.IRQController) {
	w.words = append(w.words, l.SaveWords()...)
}

func getIRQ(r *reader, l ports.IRQController) {
	ws := r.rest()
	if r.err == nil {
		if err := l.LoadWords(ws); err != nil {
			r.err = err
		}
	}
}

func putVCPU(w *writer, vc *hv.VCPU) {
	msrs := vc.MSRSnapshot()
	addrs := make([]uint32, 0, len(msrs))
	for a := range msrs {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	w.word(uint64(len(addrs)))
	for _, a := range addrs {
		w.word(uint64(a))
		w.word(msrs[a])
	}
	// Halted is captured for comparison but not restored: it mirrors a
	// guest suspended in a live HLT wait, which restore's write-back
	// semantics leave running.
	w.boolWord(vc.Halted)
}

func getVCPU(r *reader, vc *hv.VCPU) {
	msrs := make(map[uint32]uint64)
	for i, n := 0, r.count(2); i < n; i++ {
		a := uint32(r.word())
		msrs[a] = r.word()
	}
	r.boolWord() // Halted: read and discarded, see putVCPU
	if r.err == nil {
		vc.RestoreMSRs(msrs)
	}
}

const wordsPerPage = mem.PageSize / 8

// pagesWords is the length of a page set's encoding: a count word, then
// an index word and the contents of each page.
func pagesWords(n int) int { return 1 + n*(1+wordsPerPage) }

func putPages(w *writer, pages []mem.Page) {
	w.grow(pagesWords(len(pages)))
	w.word(uint64(len(pages)))
	for i := range pages {
		w.word(pages[i].Index)
		for off := 0; off < mem.PageSize; off += 8 {
			w.word(binary.LittleEndian.Uint64(pages[i].Data[off : off+8]))
		}
	}
}

func getPages(r *reader) ([]mem.Page, bool) {
	n := r.count(1 + wordsPerPage)
	if r.err != nil {
		return nil, false
	}
	pages := make([]mem.Page, n)
	for i := 0; i < n; i++ {
		pages[i].Index = r.word()
		for off := 0; off < mem.PageSize; off += 8 {
			binary.LittleEndian.PutUint64(pages[i].Data[off:off+8], r.word())
		}
	}
	return pages, r.err == nil
}

func putQueue(w *writer, q *virtio.Queue) {
	st := q.SaveState()
	w.word(uint64(st.FreeHead))
	w.word(uint64(st.NumFree))
	w.word(uint64(st.AvailIdx))
	w.word(uint64(st.UsedEvent))
	w.word(uint64(st.LastAvail))
	w.word(st.UsedIdx)
	w.word(uint64(st.LastUsed))
}

// Queue section word offsets, exported for targeted corruption in
// broken-restore tests (MutateWord on a "vq/..." section).
const (
	QWordFreeHead = iota
	QWordNumFree
	QWordAvailIdx
	QWordUsedEvent
	QWordLastAvail
	QWordUsedIdx
	QWordLastUsed
)

func getQueue(r *reader, q *virtio.Queue) {
	st := virtio.QueueState{
		FreeHead:  uint16(r.word()),
		NumFree:   uint16(r.word()),
		AvailIdx:  uint16(r.word()),
		UsedEvent: uint16(r.word()),
		LastAvail: uint16(r.word()),
		UsedIdx:   r.word(),
		LastUsed:  uint16(r.word()),
	}
	if r.err == nil {
		q.LoadState(st)
	}
}

func putRing(w *writer, ring *swsvt.Ring) {
	st := ring.SaveState()
	w.word(st.Head)
	w.word(st.Tail)
	w.word(st.Pushes)
	w.word(uint64(len(st.Cmds)))
	for _, c := range st.Cmds {
		w.word(uint64(c.Type))
		w.word(c.Seq)
		w.word(c.Exit)
	}
}

func getRing(r *reader, ring *swsvt.Ring) {
	st := swsvt.RingState{Head: r.word(), Tail: r.word(), Pushes: r.word()}
	for i, n := 0, r.count(3); i < n; i++ {
		st.Cmds = append(st.Cmds, swsvt.Cmd{Type: swsvt.CmdType(r.word()), Seq: r.word(), Exit: r.word()})
	}
	if r.err == nil {
		if got := int(st.Tail - st.Head); got != len(st.Cmds) || got > ring.Cap() {
			r.err = fmt.Errorf("snapshot: ring state inconsistent: head=%d tail=%d cmds=%d cap=%d",
				st.Head, st.Tail, len(st.Cmds), ring.Cap())
			return
		}
		ring.LoadState(st)
	}
}
