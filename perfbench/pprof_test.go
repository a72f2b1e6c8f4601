package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

// pb is a tiny protobuf encoder for building test profiles.
type pb struct{ b []byte }

func (p *pb) varint(num int, v uint64) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3)
	p.b = binary.AppendUvarint(p.b, v)
	return p
}

func (p *pb) bytes(num int, b []byte) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
	return p
}

func (p *pb) packed(num int, vs ...uint64) *pb {
	var q []byte
	for _, v := range vs {
		q = binary.AppendUvarint(q, v)
	}
	return p.bytes(num, q)
}

// testProfile builds a gzip-compressed CPU profile with three stacks:
// mallocgc called from the hv module, an x86-port frame inlined into
// an hv frame, and a stack with no svtsim frame at all.
func testProfile() []byte {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"runtime.mallocgc",
		"svtsim/internal/hv.(*Hypervisor).Handle",
		"svtsim/internal/ports/x86.(*lapic).Deliver",
		"main.main"}
	var p pb
	p.bytes(1, (&pb{}).varint(1, 1).varint(2, 2).b) // samples/count
	p.bytes(1, (&pb{}).varint(1, 3).varint(2, 4).b) // cpu/nanoseconds
	p.bytes(2, (&pb{}).packed(1, 1, 2, 4).packed(2, 1, 10).b)
	p.bytes(2, (&pb{}).packed(1, 3, 4).packed(2, 3, 30).b)
	p.bytes(2, (&pb{}).varint(1, 4).varint(2, 6).varint(2, 60).b) // unpacked
	line := func(fn uint64) []byte { return (&pb{}).varint(1, fn).b }
	p.bytes(4, (&pb{}).varint(1, 1).bytes(4, line(1)).b)
	p.bytes(4, (&pb{}).varint(1, 2).bytes(4, line(2)).b)
	// Location 3: Deliver inlined into Handle; the innermost line is first.
	p.bytes(4, (&pb{}).varint(1, 3).bytes(4, line(3)).bytes(4, line(2)).b)
	p.bytes(4, (&pb{}).varint(1, 4).bytes(4, line(4)).b)
	for i := uint64(1); i <= 4; i++ {
		p.bytes(5, (&pb{}).varint(1, i).varint(2, i+4).b)
	}
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(p.b)
	zw.Close()
	return buf.Bytes()
}

func TestModuleSharesChargeInnermostModuleFrame(t *testing.T) {
	prof, err := parseProfile(testProfile())
	if err != nil {
		t.Fatal(err)
	}
	got := prof.moduleShares()
	want := map[string]float64{"hv": 10, "ports": 30, "runtime": 60}
	for m, w := range want {
		if math.Abs(got[m]-w) > 1e-9 {
			t.Errorf("%s share = %v, want %v (all: %v)", m, got[m], w, got)
		}
	}
	if len(got) != len(want) {
		t.Errorf("shares = %v, want only %v", got, want)
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"svtsim/internal/sim.(*Engine).Drain":        "sim",
		"svtsim/internal/ports/x86.(*lapic).Deliver": "ports",
		"svtsim/internal/vmcs.FieldsOfClass":         "vmcs",
		"svtsim/internal/machine.NewNested.func1":    "machine",
		"runtime.chansend":                           "",
		"main.(*nestedExits).pass":                   "",
		"svtsim.(*Session).CPUIDNested":              "",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestParseRuntimeProfile decodes a real runtime/pprof CPU profile.
func TestParseRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	x := 0
	for end := time.Now().Add(200 * time.Millisecond); time.Now().Before(end); {
		x++
	}
	pprof.StopCPUProfile()
	prof, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.sampleTypes) != 2 || prof.sampleTypes[1] != "cpu" {
		t.Fatalf("sample types = %v", prof.sampleTypes)
	}
	total := 0.0
	for _, v := range prof.moduleShares() {
		total += v
	}
	if len(prof.samples) > 0 && math.Abs(total-100) > 1e-6 {
		t.Fatalf("shares sum to %v, want 100", total)
	}
	_ = x
}
