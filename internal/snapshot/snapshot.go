// Package snapshot captures and restores the full architectural state
// of a nested machine as a canonical serializable form: an ordered list
// of named sections, each a flat word stream. It extends
// machine.StateDigest — a summary of the transparency-relevant end
// state — into something a live migration can actually move: machine
// registers, every VMCS, the EPT hierarchy, LAPICs (pending sets and
// armed deadlines), guest memory, disk contents, virtqueue shadows, and
// the SW-SVt reflection-protocol state.
//
// The format is deliberately simple and deterministic: same machine
// state, same words, same digest, forever. Sections are captured in a
// fixed order and every set-valued component is serialized sorted, so a
// capture→restore→capture round trip is digest-verified by construction
// and any divergence is a restore bug (or a deliberately injected one —
// the differential harness's broken-restore tests corrupt a capture
// with MutateWord and watch the oracle catch the divergence
// downstream). Restore only ever reads from a snapshot.
package snapshot

import (
	"fmt"

	"svtsim/internal/sim"
)

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func fnvWord(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= fnvPrime
		x >>= 8
	}
	return h
}

// Section is one named word stream of the canonical form.
type Section struct {
	Name  string
	Words []uint64
}

// Snapshot is a machine state in canonical serializable form.
type Snapshot struct {
	Sections []Section
}

// Section returns the named section, or nil.
func (s *Snapshot) Section(name string) *Section {
	for i := range s.Sections {
		if s.Sections[i].Name == name {
			return &s.Sections[i]
		}
	}
	return nil
}

// Digest folds every section name and word with FNV-1a (the same
// constants machine.StateDigest uses). Two snapshots with equal digests
// carry identical state.
func (s *Snapshot) Digest() uint64 {
	h := fnvOffset
	for _, sec := range s.Sections {
		for _, b := range []byte(sec.Name) {
			h ^= uint64(b)
			h *= fnvPrime
		}
		h = fnvWord(h, uint64(len(sec.Words)))
		for _, w := range sec.Words {
			h = fnvWord(h, w)
		}
	}
	return h
}

// Bytes reports the encoded transfer size of the snapshot: eight bytes
// per word plus each section's name and length header. Migration prices
// its transfer phase from this.
func (s *Snapshot) Bytes() int {
	n := 0
	for _, sec := range s.Sections {
		n += len(sec.Name) + 8 + 8*len(sec.Words)
	}
	return n
}

// MutateWord overwrites one word of a named section in place. It is the
// deliberate-corruption hook the broken-restore tests use (e.g.
// dropping a virtqueue index) — a faithful restore of the mutated
// snapshot then diverges downstream and the differential oracle must
// catch it.
func (s *Snapshot) MutateWord(name string, idx int, val uint64) error {
	sec := s.Section(name)
	if sec == nil {
		return fmt.Errorf("snapshot: no section %q", name)
	}
	if idx < 0 || idx >= len(sec.Words) {
		return fmt.Errorf("snapshot: section %q has %d words, index %d out of range", name, len(sec.Words), idx)
	}
	sec.Words[idx] = val
	return nil
}

// writer builds one section's word stream.
type writer struct {
	words []uint64
}

// grow reserves room for n more words, so a section whose length is
// known up front is allocated once instead of doubling as it fills.
// slices.Grow would do, but race-instrumented builds compile its
// append-of-make as a real make and allocate the section twice.
func (w *writer) grow(n int) {
	if cap(w.words)-len(w.words) < n {
		ws := make([]uint64, len(w.words), len(w.words)+n)
		copy(ws, w.words)
		w.words = ws
	}
}

func (w *writer) word(x uint64)   { w.words = append(w.words, x) }
func (w *writer) time(t sim.Time) { w.word(uint64(t)) }
func (w *writer) boolWord(b bool) { w.word(boolTo(b)) }
func boolTo(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// reader consumes one section's word stream, recording the first error.
type reader struct {
	name string
	sec  []uint64
	pos  int
	err  error
}

func (r *reader) word() uint64 {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.sec) {
		r.err = fmt.Errorf("snapshot: section %q truncated at word %d", r.name, r.pos)
		return 0
	}
	w := r.sec[r.pos]
	r.pos++
	return w
}

func (r *reader) time() sim.Time { return sim.Time(r.word()) }
func (r *reader) boolWord() bool { return r.word() != 0 }

// count reads a length word and bounds-checks it against what the
// section can still hold at per words per element, so corrupt lengths
// fail cleanly instead of allocating wildly.
func (r *reader) count(per int) int {
	n := r.word()
	if r.err != nil {
		return 0
	}
	if per < 1 {
		per = 1
	}
	if n > uint64((len(r.sec)-r.pos)/per) {
		r.err = fmt.Errorf("snapshot: section %q claims %d elements with %d words left", r.name, n, len(r.sec)-r.pos)
		return 0
	}
	return int(n)
}

// rest consumes and returns every remaining word of the section (for
// codecs that self-describe their length, like the port IRQ codec).
func (r *reader) rest() []uint64 {
	if r.err != nil {
		return nil
	}
	ws := r.sec[r.pos:]
	r.pos = len(r.sec)
	return ws
}

func (r *reader) fin() error {
	if r.err != nil {
		return r.err
	}
	if r.pos != len(r.sec) {
		return fmt.Errorf("snapshot: section %q has %d trailing words", r.name, len(r.sec)-r.pos)
	}
	return nil
}
