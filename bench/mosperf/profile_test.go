package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
	"time"
)

// pbuf is a minimal protobuf writer for building synthetic profiles.
type pbuf struct{ b []byte }

func (p *pbuf) varint(field int, v uint64) *pbuf {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3)
	p.b = binary.AppendUvarint(p.b, v)
	return p
}

func (p *pbuf) bytes(field int, data []byte) *pbuf {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(data)))
	p.b = append(p.b, data...)
	return p
}

func (p *pbuf) packed(field int, vs ...uint64) *pbuf {
	var inner []byte
	for _, v := range vs {
		inner = binary.AppendUvarint(inner, v)
	}
	return p.bytes(field, inner)
}

// syntheticProfile encodes one sample per stack (leaf first; a stack
// element with two names is one location holding an inlined frame, inner
// name first), each worth 10 ms of CPU. Location ids are written packed
// for long stacks and unpacked for short ones, as runtime/pprof does.
func syntheticProfile(stacks [][][]string) []byte {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	strIdx := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	var prof pbuf
	prof.bytes(profSampleType, (&pbuf{}).varint(valueTypeType, 1).varint(2, 2).b)
	prof.bytes(profSampleType, (&pbuf{}).varint(valueTypeType, 3).varint(2, 4).b)
	funcID := map[string]uint64{}
	nextLoc := uint64(1)
	for _, stack := range stacks {
		var locs []uint64
		for _, frame := range stack {
			var loc pbuf
			loc.varint(locationID, nextLoc)
			for _, fn := range frame {
				id, ok := funcID[fn]
				if !ok {
					id = uint64(len(funcID) + 1)
					funcID[fn] = id
					prof.bytes(profFunction, (&pbuf{}).varint(functionID, id).varint(functionName, strIdx(fn)).b)
				}
				loc.bytes(locationLine, (&pbuf{}).varint(lineFunctionID, id).varint(2, 42).b)
			}
			prof.bytes(profLocation, loc.b)
			locs = append(locs, nextLoc)
			nextLoc++
		}
		var s pbuf
		if len(locs) > 2 {
			s.packed(sampleLocationID, locs...)
		} else {
			for _, l := range locs {
				s.varint(sampleLocationID, l)
			}
		}
		s.packed(sampleValue, 1, 10_000_000)
		prof.bytes(profSample, s.b)
	}
	for _, s := range strs {
		prof.bytes(profStringTable, []byte(s))
	}
	var z bytes.Buffer
	zw := gzip.NewWriter(&z)
	zw.Write(prof.b)
	zw.Close()
	return z.Bytes()
}

func TestAttributionInnermostLayerFrame(t *testing.T) {
	stacks := [][][]string{
		// A runtime leaf under the proc handoff: sim's self and handoff.
		{{"runtime.futex"}, {"runtime.chanrecv"}, {"repro/internal/sim.(*Proc).recv"},
			{"repro/internal/apps.RunExim.func1"}},
		// The GC's own worker, no repo frame.
		{{"runtime.scanobject"}, {"runtime.gcDrain"}, {"runtime.gcBgMarkWorker"}},
		// The scheduler looking for work, no repo frame.
		{{"runtime.findRunnable"}, {"runtime.schedule"}},
		// A helper package is charged to the layer that calls it.
		{{"repro/internal/xrand.(*Rand).Uint64"}, {"repro/internal/mem.(*Model).Read"}},
		// An inlined frame: the location's first line is innermost.
		{{"repro/internal/slock.(*SpinLock).Acquire", "repro/internal/vfs.(*FS).Walk"},
			{"repro/internal/apps.RunExim.func1"}},
		// A non-runtime library leaf under sim is sim's, not handoff.
		{{"sort.Search"}, {"repro/internal/sim.(*Engine).Run"}},
	}
	p, err := parseCPUProfile(syntheticProfile(stacks))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.samples) != len(stacks) {
		t.Fatalf("parsed %d samples, want %d", len(p.samples), len(stacks))
	}
	a := attribute(p)
	const ms10 = 10_000_000
	want := map[string]int64{"sim": 2 * ms10, bucketGC: ms10, bucketSched: ms10, "mem": ms10, "slock": ms10}
	for k, v := range want {
		if a.self[k] != v {
			t.Errorf("self[%s] = %d, want %d", k, a.self[k], v)
		}
	}
	if a.handoff != ms10 {
		t.Errorf("handoff = %d, want %d", a.handoff, ms10)
	}
	for k, v := range map[string]int64{"apps": 2 * ms10, "vfs": ms10, "slock": ms10, "sim": 2 * ms10} {
		if a.incl[k] != v {
			t.Errorf("incl[%s] = %d, want %d", k, a.incl[k], v)
		}
	}
	checkSelfSum(t, a)
	v := layerValues(a)
	if v["sim.self_cpu_s"] != 0.02 || v["sim.handoff_cpu_s"] != 0.01 || v["runtime.gc_cpu_s"] != 0.01 {
		t.Errorf("layer values: sim.self %v, sim.handoff %v, runtime.gc %v",
			v["sim.self_cpu_s"], v["sim.handoff_cpu_s"], v["runtime.gc_cpu_s"])
	}
}

// checkSelfSum asserts that the self buckets sum to the profile total.
func checkSelfSum(t *testing.T, a attribution) {
	t.Helper()
	var sum int64
	for _, ns := range a.self {
		sum += ns
	}
	if sum != a.total {
		t.Errorf("self buckets sum to %d, profile total %d", sum, a.total)
	}
}

// TestParseRealProfile reads a profile runtime/pprof wrote.
func TestParseRealProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	x := 0
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*31 + i
		}
	}
	pprof.StopCPUProfile()
	f.Close()
	sink = x
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	p, err := parseCPUProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	a := attribute(p)
	if len(p.samples) == 0 || a.total <= 0 {
		t.Fatalf("no CPU samples in a 300 ms busy loop (%d samples)", len(p.samples))
	}
	checkSelfSum(t, a)
}

var sink int
