package ept

import "sort"

// PageState is one mapped page in canonical form.
type PageState struct {
	GFN      uint64
	HostPage uint64
	Perm     Perm
}

// DevState is one misconfigured (device) region in canonical form.
type DevState struct {
	Base, Size, Dev uint64
}

// State is the canonical serializable form of a table: mappings sorted
// by guest frame number, device regions in installation order, and the
// invalidation epoch. The walk counter is a performance tally, not
// architectural state, and is excluded.
type State struct {
	Pages []PageState
	Devs  []DevState
	Epoch uint64
}

// SaveState captures the table content.
func (t *Table) SaveState() State {
	s := State{Pages: make([]PageState, 0, len(t.pages)), Epoch: t.epoch}
	for gfn, e := range t.pages {
		s.Pages = append(s.Pages, PageState{GFN: gfn, HostPage: e.hostPage, Perm: e.perm})
	}
	sort.Slice(s.Pages, func(i, j int) bool { return s.Pages[i].GFN < s.Pages[j].GFN })
	for _, d := range t.devs {
		s.Devs = append(s.Devs, DevState{Base: d.base, Size: d.size, Dev: d.dev})
	}
	return s
}

// LoadState replaces the table content with a saved state. Mappings
// installed after the capture are dropped, exactly as a restored EPT
// must forget post-snapshot changes.
func (t *Table) LoadState(s State) {
	t.pages = make(map[uint64]entry, len(s.Pages))
	for _, p := range s.Pages {
		t.pages[p.GFN] = entry{hostPage: p.HostPage, perm: p.Perm}
	}
	t.devs = t.devs[:0]
	for _, d := range s.Devs {
		t.devs = append(t.devs, devRegion{base: d.Base, size: d.Size, dev: d.Dev})
	}
	t.epoch = s.Epoch
}
