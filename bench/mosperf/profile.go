package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the repository's modules, the units host CPU is attributed
// to. Other repro packages (xrand, fprint, the benchmark itself) are
// helpers: their frames are charged to the nearest layer that calls them.
var layers = []string{
	"sim", "mem", "topo", "slock", "vfs", "mm", "proc", "rcu", "scount",
	"prof", "netsim", "load", "fault", "kernel", "apps", "harness",
}

// Buckets for samples with no layer frame on the stack.
const (
	bucketGC    = "runtime.gc"
	bucketSched = "runtime.sched"
)

// cpuProfile is the part of a pprof profile.proto that attribution needs:
// each sample's CPU nanoseconds and its stack as function names, leaf
// first (inlined frames included, innermost first).
type cpuProfile struct {
	samples []cpuSample
}

type cpuSample struct {
	stack []string
	ns    int64
}

// protobuf field numbers of profile.proto (github.com/google/pprof).
const (
	profSampleType  = 1
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	valueTypeType = 1

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4

	lineFunctionID = 1

	functionID   = 1
	functionName = 2
)

// parseCPUProfile decodes a gzipped (or plain) profile.proto as written
// by runtime/pprof. The sample value used is the one whose type is "cpu";
// a profile without one uses its last value.
func parseCPUProfile(data []byte) (*cpuProfile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs       []string
		typeIdx    []int64
		raws       []rawSample
		funcName   = map[uint64]int64{}
		locFuncIDs = map[uint64][]uint64{}
	)
	err := walkFields(data, func(field int, v uint64, b []byte) error {
		switch field {
		case profStringTable:
			strs = append(strs, string(b))
		case profSampleType:
			var t int64
			err := walkFields(b, func(f int, v uint64, _ []byte) error {
				if f == valueTypeType {
					t = int64(v)
				}
				return nil
			})
			typeIdx = append(typeIdx, t)
			return err
		case profSample:
			var s rawSample
			err := walkFields(b, func(f int, v uint64, packed []byte) error {
				switch f {
				case sampleLocationID:
					return appendVarints(&s.locs, v, packed)
				case sampleValue:
					var u []uint64
					if err := appendVarints(&u, v, packed); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			raws = append(raws, s)
			return err
		case profLocation:
			var id uint64
			var fids []uint64
			err := walkFields(b, func(f int, v uint64, lb []byte) error {
				switch f {
				case locationID:
					id = v
				case locationLine:
					return walkFields(lb, func(f int, v uint64, _ []byte) error {
						if f == lineFunctionID {
							fids = append(fids, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncIDs[id] = fids
			return err
		case profFunction:
			var id uint64
			var name int64
			err := walkFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	valIdx := len(typeIdx) - 1
	for i, t := range typeIdx {
		if str(t) == "cpu" {
			valIdx = i
		}
	}
	p := &cpuProfile{}
	for _, r := range raws {
		if valIdx < 0 || valIdx >= len(r.values) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		s := cpuSample{ns: r.values[valIdx]}
		for _, loc := range r.locs {
			for _, fid := range locFuncIDs[loc] {
				s.stack = append(s.stack, str(funcName[fid]))
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// walkFields calls fn for every field of the protobuf message b: with the
// value for varint and fixed fields, with the bytes for length-delimited
// ones.
func walkFields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length-delimited field")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values: v itself when
// the field was encoded unpacked (packed == nil), else every varint in
// packed.
func appendVarints(dst *[]uint64, v uint64, packed []byte) error {
	if packed == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst, packed = append(*dst, x), packed[n:]
	}
	return nil
}

// attribution is host CPU per layer, in nanoseconds.
type attribution struct {
	// total is every sample's CPU.
	total int64
	// self charges each sample once: to the innermost layer frame on its
	// stack (runtime and library frames count as their nearest layer
	// caller), or, with no layer frame, to bucketGC when a GC worker
	// frame is on the stack and to bucketSched otherwise. The buckets sum
	// to total.
	self map[string]int64
	// incl charges each sample to every layer with a frame on its stack,
	// once per layer.
	incl map[string]int64
	// handoff is the part of self["sim"] whose leaf frame is in the
	// runtime: goroutine handoff, channel operations, and the engine's
	// allocations.
	handoff int64
}

// attribute applies the innermost-layer-frame rule to every sample.
func attribute(p *cpuProfile) attribution {
	a := attribution{self: map[string]int64{}, incl: map[string]int64{}}
	for _, s := range p.samples {
		a.total += s.ns
		self := ""
		seen := map[string]bool{}
		for _, fn := range s.stack {
			l := layerOf(fn)
			if l == "" || seen[l] {
				continue
			}
			seen[l] = true
			a.incl[l] += s.ns
			if self == "" {
				self = l
			}
		}
		switch {
		case self == "sim" && len(s.stack) > 0 && strings.HasPrefix(s.stack[0], "runtime."):
			a.handoff += s.ns
		case self == "" && hasGCFrame(s.stack):
			self = bucketGC
		case self == "":
			self = bucketSched
		}
		a.self[self] += s.ns
	}
	return a
}

// layerOf returns the layer a function belongs to, or "" for functions
// outside every layer.
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, "repro/internal/")
	if !ok {
		return ""
	}
	pkg := rest
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		pkg = rest[:i]
	}
	for _, l := range layers {
		if l == pkg {
			return l
		}
	}
	return ""
}

// hasGCFrame reports whether a stack is the garbage collector's own work:
// a background mark worker, the sweeper or the scavenger.
func hasGCFrame(stack []string) bool {
	for _, fn := range stack {
		switch {
		case strings.HasPrefix(fn, "runtime.gc"),
			strings.HasPrefix(fn, "runtime.bgsweep"),
			strings.HasPrefix(fn, "runtime.bgscavenge"),
			strings.HasPrefix(fn, "runtime.markroot"),
			strings.HasPrefix(fn, "runtime.scanobject"):
			return true
		}
	}
	return false
}
