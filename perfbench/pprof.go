package main

// A minimal decoder for the gzip-compressed protobuf profiles that
// runtime/pprof writes, using the standard library only. It reads just
// what layer attribution needs: sample values, location ids, the
// function ids of each location's (inlined) lines, function names and
// the string table.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuProfile is the decoded subset of a profile.proto message.
type cpuProfile struct {
	sampleTypes []string            // type name of each sample value
	samples     []pSample           // leaf location first
	locFuncs    map[uint64][]uint64 // location id -> function ids, innermost first
	funcNames   map[uint64]string   // function id -> name
}

type pSample struct {
	locs   []uint64
	values []int64
}

// field is one protobuf field: a varint value or a length-delimited
// payload.
type field struct {
	num    int
	varint uint64
	bytes  []byte
	wire   int
}

// fields splits a protobuf message into its fields.
func fields(b []byte) ([]field, error) {
	var out []field
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("pprof: bad field key")
		}
		b = b[n:]
		f := field{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return nil, errors.New("pprof: bad varint")
			}
			f.varint, b = v, b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errors.New("pprof: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errors.New("pprof: bad length")
			}
			f.bytes, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errors.New("pprof: short fixed32")
			}
			b = b[4:]
		default:
			return nil, fmt.Errorf("pprof: unsupported wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// uvarints appends a repeated varint field, packed or not.
func uvarints(dst []uint64, f field) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.varint), nil
	}
	b := f.bytes
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("pprof: bad packed varint")
		}
		dst, b = append(dst, v), b[n:]
	}
	return dst, nil
}

// parseProfile decodes a gzip-compressed (or raw) profile.
func parseProfile(data []byte) (*cpuProfile, error) {
	if len(data) > 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	top, err := fields(data)
	if err != nil {
		return nil, err
	}
	p := &cpuProfile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]string{}}
	var strs []string
	var typeIdx []uint64
	funcStr := map[uint64]uint64{}
	for _, f := range top {
		switch f.num {
		case 1: // sample_type
			sub, err := fields(f.bytes)
			if err != nil {
				return nil, err
			}
			for _, s := range sub {
				if s.num == 1 {
					typeIdx = append(typeIdx, s.varint)
				}
			}
		case 2: // sample
			sub, err := fields(f.bytes)
			if err != nil {
				return nil, err
			}
			var s pSample
			var vals []uint64
			for _, x := range sub {
				switch x.num {
				case 1:
					if s.locs, err = uvarints(s.locs, x); err != nil {
						return nil, err
					}
				case 2:
					if vals, err = uvarints(vals, x); err != nil {
						return nil, err
					}
				}
			}
			for _, v := range vals {
				s.values = append(s.values, int64(v))
			}
			p.samples = append(p.samples, s)
		case 4: // location
			sub, err := fields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, x := range sub {
				switch x.num {
				case 1:
					id = x.varint
				case 4: // line
					ln, err := fields(x.bytes)
					if err != nil {
						return nil, err
					}
					for _, l := range ln {
						if l.num == 1 {
							fns = append(fns, l.varint)
						}
					}
				}
			}
			p.locFuncs[id] = fns
		case 5: // function
			sub, err := fields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, x := range sub {
				switch x.num {
				case 1:
					id = x.varint
				case 2:
					name = x.varint
				}
			}
			funcStr[id] = name
		case 6: // string_table
			strs = append(strs, string(f.bytes))
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	for id, s := range funcStr {
		p.funcNames[id] = str(s)
	}
	for _, t := range typeIdx {
		p.sampleTypes = append(p.sampleTypes, str(t))
	}
	return p, nil
}

// modulePrefix marks the program's own packages in function names.
const modulePrefix = "svtsim/internal/"

// moduleOf names the svtsim/internal module a function belongs to
// ("ports" for svtsim/internal/ports/x86.(*lapic).Deliver), or "".
func moduleOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, modulePrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "/."); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// moduleShares charges each sample to the innermost svtsim/internal
// frame of its stack (runtime frames included) and returns each
// module's share of all samples in percent. Samples with no such frame
// go to "runtime".
func (p *cpuProfile) moduleShares() map[string]float64 {
	vi := len(p.sampleTypes) - 1 // the cpu-nanoseconds value
	for i, t := range p.sampleTypes {
		if t == "cpu" {
			vi = i
		}
	}
	weights := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		if vi < 0 || vi >= len(s.values) {
			continue
		}
		w := float64(s.values[vi])
		total += w
		weights[p.innermostModule(s)] += w
	}
	out := map[string]float64{}
	if total == 0 {
		return out
	}
	for m, w := range weights {
		out[m] = 100 * w / total
	}
	return out
}

func (p *cpuProfile) innermostModule(s pSample) string {
	for _, loc := range s.locs {
		for _, fn := range p.locFuncs[loc] {
			if m := moduleOf(p.funcNames[fn]); m != "" {
				return m
			}
		}
	}
	return "runtime"
}
