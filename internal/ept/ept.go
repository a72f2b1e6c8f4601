// Package ept models extended page tables: the hardware-walked mapping
// from guest-physical to host-physical addresses, including the
// "misconfigured" entries hypervisors deliberately install over device
// windows so that MMIO accesses exit with EPT_MISCONFIG (the dominant
// exit reason in the paper's I/O profiles, §6.2–§6.3).
//
// Nested virtualization composes two levels: L1 builds an EPT mapping
// L2-physical to L1-physical, and L0 folds it with its own L1-physical to
// host-physical EPT into the shadow EPT actually walked by hardware
// (vmcs02). Compose implements that fold.
package ept

import (
	"fmt"
	"sort"

	"svtsim/internal/mem"
)

// Perm is an access-permission bitmask.
type Perm uint8

// Permission bits.
const (
	PermR Perm = 1 << iota
	PermW
	PermX
	PermRW  = PermR | PermW
	PermRWX = PermR | PermW | PermX
)

func (p Perm) String() string {
	b := []byte("---")
	if p&PermR != 0 {
		b[0] = 'r'
	}
	if p&PermW != 0 {
		b[1] = 'w'
	}
	if p&PermX != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// WalkLevels is the depth of the hardware page-table walk; nested
// configurations multiply walk cost (two-dimensional walks).
const WalkLevels = 4

// MisconfigError reports an access to a deliberately misconfigured
// (device) region; the Dev field identifies the owning device model.
type MisconfigError struct {
	GPA uint64
	Dev uint64
}

func (e *MisconfigError) Error() string {
	return fmt.Sprintf("ept: misconfig at %#x (device %d)", e.GPA, e.Dev)
}

// ViolationError reports an access to an unmapped or permission-violating
// address.
type ViolationError struct {
	GPA  uint64
	Need Perm
}

func (e *ViolationError) Error() string {
	return fmt.Sprintf("ept: violation at %#x (need %s)", e.GPA, e.Need)
}

type entry struct {
	hostPage uint64
	perm     Perm
}

type devRegion struct {
	base, size uint64
	dev        uint64
}

// Table is one extended page table. The zero value is not usable;
// construct with New.
type Table struct {
	name    string
	pages   map[uint64]entry // guest frame number -> entry
	devs    []devRegion
	epoch   uint64 // bumped by Invalidate, lets cached walks detect staleness
	walkCnt uint64
}

// New returns an empty table with a diagnostic name (e.g. "ept01").
func New(name string) *Table {
	return &Table{name: name, pages: make(map[uint64]entry)}
}

// Name returns the table's diagnostic name.
func (t *Table) Name() string { return t.name }

// Epoch returns the invalidation epoch; it changes on every Invalidate.
func (t *Table) Epoch() uint64 { return t.epoch }

// Walks reports how many translations have been performed (for cost
// accounting and tests).
func (t *Table) Walks() uint64 { return t.walkCnt }

// Map installs a gpa→hpa mapping of size bytes with the given
// permissions. All of gpa, hpa and size must be page aligned.
func (t *Table) Map(gpa, hpa, size uint64, perm Perm) error {
	if gpa%mem.PageSize != 0 || hpa%mem.PageSize != 0 || size%mem.PageSize != 0 || size == 0 {
		return fmt.Errorf("ept %s: unaligned map gpa=%#x hpa=%#x size=%#x", t.name, gpa, hpa, size)
	}
	if len(t.pages) == 0 {
		// A machine maps its RAM in one call: size the map once instead
		// of growing it page by page.
		t.pages = make(map[uint64]entry, size/mem.PageSize)
	}
	for off := uint64(0); off < size; off += mem.PageSize {
		t.pages[(gpa+off)/mem.PageSize] = entry{hostPage: (hpa + off) / mem.PageSize, perm: perm}
	}
	return nil
}

// MapMisconfig marks [gpa, gpa+size) as a device window: any access exits
// with EPT_MISCONFIG carrying dev.
func (t *Table) MapMisconfig(gpa, size, dev uint64) error {
	if size == 0 {
		return fmt.Errorf("ept %s: empty misconfig region", t.name)
	}
	t.devs = append(t.devs, devRegion{base: gpa, size: size, dev: dev})
	return nil
}

// DeviceAt reports the device owning gpa, if any.
func (t *Table) DeviceAt(gpa uint64) (uint64, bool) {
	for _, d := range t.devs {
		if gpa >= d.base && gpa < d.base+d.size {
			return d.dev, true
		}
	}
	return 0, false
}

// Fault classifies the outcome of a walk.
type Fault uint8

// Walk outcomes.
const (
	NoFault        Fault = iota // translated
	FaultMisconfig              // gpa lies in a device window
	FaultViolation              // unmapped, or mapped without the needed permissions
)

// Walk walks the table for a single access at gpa needing perm
// permissions. It returns the host-physical address, or, for
// FaultMisconfig, the device owning gpa. It is Translate without the
// error values: the instruction path takes a device-window fault on
// nearly every MMIO access and must not allocate one.
func (t *Table) Walk(gpa uint64, need Perm) (hpa, dev uint64, f Fault) {
	t.walkCnt++
	if dev, ok := t.DeviceAt(gpa); ok {
		return 0, dev, FaultMisconfig
	}
	e, ok := t.pages[gpa/mem.PageSize]
	if !ok || e.perm&need != need {
		return 0, 0, FaultViolation
	}
	return e.hostPage*mem.PageSize + gpa%mem.PageSize, 0, NoFault
}

// Translate walks the table for a single access at gpa needing perm
// permissions, returning the host-physical address, a *MisconfigError
// or a *ViolationError.
func (t *Table) Translate(gpa uint64, need Perm) (uint64, error) {
	hpa, dev, f := t.Walk(gpa, need)
	switch f {
	case FaultMisconfig:
		return 0, &MisconfigError{GPA: gpa, Dev: dev}
	case FaultViolation:
		return 0, &ViolationError{GPA: gpa, Need: need}
	}
	return hpa, nil
}

// Invalidate models INVEPT: it bumps the epoch so that any cached
// translations must be re-walked.
func (t *Table) Invalidate() { t.epoch++ }

// Compose builds the shadow table inner∘outer: for every page mapped by
// inner (gpaInner→gpaOuter) it walks outer (gpaOuter→hpa) and installs
// gpaInner→hpa with the intersection of permissions. Device regions of
// the inner table are preserved (they must keep trapping in the composed
// table), and inner pages that land on an outer device region become
// device regions too, installed in ascending guest-frame order so the
// canonical state never depends on map iteration order.
func Compose(name string, inner, outer *Table) (*Table, error) {
	out := &Table{name: name, pages: make(map[uint64]entry, len(inner.pages))}
	var devPages []devRegion
	for gfn, e := range inner.pages {
		if dev, ok := outer.DeviceAt(e.hostPage * mem.PageSize); ok {
			devPages = append(devPages, devRegion{base: gfn * mem.PageSize, size: mem.PageSize, dev: dev})
			continue
		}
		oe, ok := outer.pages[e.hostPage]
		if !ok {
			return nil, &ViolationError{GPA: e.hostPage * mem.PageSize, Need: PermR}
		}
		out.pages[gfn] = entry{hostPage: oe.hostPage, perm: e.perm & oe.perm}
	}
	sort.Slice(devPages, func(i, j int) bool { return devPages[i].base < devPages[j].base })
	out.devs = append(out.devs, devPages...)
	for _, d := range inner.devs {
		out.devs = append(out.devs, d)
	}
	return out, nil
}
