package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// This file decodes the CPU profile runtime/pprof writes (a gzipped
// profile.proto message) with a small protobuf reader, and charges each
// sample's CPU time to one layer of the simulator.

// layers are the host-time layers, in report order.
var layers = []string{
	"sim", "mem", "mesh", "cmmu", "rel", "machine", "core", "apps", "stress",
	"checkers", "instr", "go-sched", "go-gc", "go-other", "bench",
}

// pkgLayers maps each simulator package to its layer.
var pkgLayers = map[string]string{
	"alewife/internal/sim":     "sim",
	"alewife/internal/mem":     "mem",
	"alewife/internal/mesh":    "mesh",
	"alewife/internal/cmmu":    "cmmu",
	"alewife/internal/machine": "machine",
	"alewife/internal/core":    "core",
	"alewife/internal/apps":    "apps",
	"alewife/internal/stress":  "stress",
	"alewife/internal/stats":   "instr",
	"alewife/internal/trace":   "instr",
	"alewife/internal/metrics": "instr",
	"alewife/e2ebench":         "bench", // package main, as a test binary names it
}

// funcLayers carve layers out of a package by function-name prefix: the
// reliable-delivery sublayer out of cmmu, and the protocol checkers out of
// mem, cmmu and stress.
var funcLayers = []struct{ prefix, layer string }{
	{"alewife/internal/cmmu.(*Reliable).", "rel"},
	{"alewife/internal/cmmu.(*pendMsg).", "rel"},
	{"alewife/internal/cmmu.(*RelFault).", "rel"},
	{"alewife/internal/cmmu.(*Checker).", "checkers"},
	{"alewife/internal/mem.(*LiveChecker).", "checkers"},
	{"alewife/internal/mem.(*Fabric).CheckConsistency", "checkers"},
	{"alewife/internal/stress.CheckHistory", "checkers"},
}

// Go runtime functions, by name prefix after "runtime.", that are the
// scheduler (including channel operations, which is how the engine hands
// its baton between goroutines) or the garbage collector and allocator.
var (
	schedFuncs = []string{
		"schedule", "findRunnable", "park_m", "gopark", "goready", "ready",
		"mcall", "chansend", "chanrecv", "selectgo", "closechan", "send", "recv",
		"notesleep", "notetsleep", "notewakeup", "semasleep", "semawakeup",
		"stopm", "startm", "wakep", "handoffp", "execute", "gogo", "gosched",
		"goschedImpl", "goexit0", "newproc", "runq", "globrunq", "stealWork",
		"checkTimers", "netpoll", "casgstatus", "resetspinning", "acquirep",
		"releasep", "mPark", "exitsyscall", "entersyscall", "sysmon", "retake",
		"mstart", "injectglist", "(*timers)", "(*timer)", "_System",
	}
	gcFuncs = []string{
		"gc", "mallocgc", "newobject", "newarray", "makeslice", "makemap",
		"growslice", "(*mheap)", "(*mcache)", "(*mcentral)", "(*mspan)",
		"(*gcWork)", "(*gcControllerState)", "(*pageAlloc)", "(*scavengerState)",
		"(*sweepLocked)", "(*sweepLocker)", "(*gcBits)", "(*wbBuf)", "scan",
		"markroot", "markBits", "greyobject", "findObject", "shade", "wbBuf",
		"bgsweep", "bgscavenge", "sweepone", "deductSweepCredit",
		"deductAssistCredit", "bulkBarrier", "typePointers", "(*typePointers)",
		"heapSetType", "nextFree", "forcegchelper", "runfinq", "_GC",
	}
)

// frameLayer names the layer a frame charges its sample to, or "" when the
// frame is neutral and the walk goes on toward the root.
func frameLayer(fn string) string {
	switch {
	case strings.HasPrefix(fn, "alewife/"):
		for _, f := range funcLayers {
			if strings.HasPrefix(fn, f.prefix) {
				return f.layer
			}
		}
		if l, ok := pkgLayers[funcPackage(fn)]; ok {
			return l
		}
		return "go-other"
	case strings.HasPrefix(fn, "main."), strings.HasPrefix(fn, "runtime/pprof."),
		strings.HasPrefix(fn, "runtime/metrics."), strings.HasPrefix(fn, "runtime.sigprof"):
		return "bench"
	case strings.HasPrefix(fn, "runtime."):
		name := strings.TrimPrefix(fn, "runtime.")
		if hasAnyPrefix(name, schedFuncs) {
			return "go-sched"
		}
		if hasAnyPrefix(name, gcFuncs) {
			return "go-gc"
		}
	}
	return ""
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// funcPackage returns the import path of a symbol name such as
// "alewife/internal/mem.(*Ctrl).serveRead".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may contain slashes and dots
	}
	slash := strings.LastIndexByte(fn, '/') + 1
	if dot := strings.IndexByte(fn[slash:], '.'); dot >= 0 {
		return fn[:slash+dot]
	}
	return fn
}

// probeFrame reports a frame of the benchmark's host-speed probe, whose
// samples are the benchmark's own work even where the scheduler does it.
func probeFrame(fn string) bool {
	for _, pkg := range []string{"main.", "alewife/e2ebench."} {
		if name, ok := strings.CutPrefix(fn, pkg); ok {
			return name == "probe" || strings.HasPrefix(name, "probe.")
		}
	}
	return false
}

// classify walks a stack from the leaf and returns the layer of the first
// frame that names one: a scheduler or channel frame is go-sched, a GC or
// allocation frame go-gc, and any other runtime or library frame is charged
// to the first simulator frame above it (so a map assignment under
// stats.(*Set).Add counts as instr). A stack that reaches its root without
// naming a layer is go-other; one through the probe is bench.
func classify(frames []string) string {
	for _, f := range frames {
		if probeFrame(f) {
			return "bench"
		}
	}
	for _, f := range frames {
		if l := frameLayer(f); l != "" {
			return l
		}
	}
	return "go-other"
}

// attribution is CPU time per layer.
type attribution struct {
	ns       map[string]int64
	total    int64
	unmapped []string // simulator packages that have no layer
}

func (a attribution) share(layer string) float64 {
	return ratio(float64(a.ns[layer]), float64(a.total))
}

// attribute charges every sample of a gzipped CPU profile to a layer.
func attribute(gz []byte) (attribution, error) {
	p, err := parseProfile(gz)
	if err != nil {
		return attribution{}, err
	}
	a := attribution{ns: map[string]int64{}}
	seen := map[string]bool{}
	for _, s := range p.samples {
		l := classify(s.frames)
		a.ns[l] += s.ns
		a.total += s.ns
		for _, f := range s.frames {
			if strings.HasPrefix(f, "alewife/") {
				if pkg := funcPackage(f); pkgLayers[pkg] == "" && !seen[pkg] {
					seen[pkg] = true
					a.unmapped = append(a.unmapped, pkg)
				}
			}
		}
	}
	sort.Strings(a.unmapped)
	return a, nil
}

// cpuProfile is the part of a profile the attribution needs: each sample's
// stack as function names, leaf first, with inlined frames expanded, and
// its CPU time.
type cpuProfile struct {
	samples []cpuSample
}

type cpuSample struct {
	frames []string
	ns     int64
}

// profile.proto field numbers used here.
const (
	profSampleType = 1
	profSample     = 2
	profLocation   = 4
	profFunction   = 5
	profStrings    = 6

	sampleLocation = 1
	sampleValue    = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2

	valueTypeType = 1
)

// parseProfile decodes a gzipped profile.proto message.
func parseProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		strs        []string
		valueTypes  []uint64 // string index of each sample value's type
		rawSamples  []rawSample
		locFuncs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNameIdx = map[uint64]uint64{}   // function id -> string index
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case profStrings:
			strs = append(strs, string(b))
		case profSampleType:
			return eachField(b, func(n int, v uint64, _ []byte) error {
				if n == valueTypeType {
					valueTypes = append(valueTypes, v)
				}
				return nil
			})
		case profSample:
			var s rawSample
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case sampleLocation:
					return appendPacked(&s.locs, v, b)
				case sampleValue:
					return appendPacked(&s.values, v, b)
				}
				return nil
			})
			rawSamples = append(rawSamples, s)
			return err
		case profLocation:
			var id uint64
			var funcs []uint64
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case locationID:
					id = v
				case locationLine:
					return eachField(b, func(n int, v uint64, _ []byte) error {
						if n == lineFunction {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = funcs
			return err
		case profFunction:
			var id, name uint64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case functionID:
					id = v
				case functionName:
					name = v
				}
				return nil
			})
			funcNameIdx[id] = name
			return err
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	// CPU profiles carry (samples, cpu nanoseconds); charge the latter.
	vi := len(valueTypes) - 1
	for i, t := range valueTypes {
		if str(t) == "cpu" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, errors.New("profile: no sample types")
	}
	p := &cpuProfile{}
	for _, rs := range rawSamples {
		if vi >= len(rs.values) {
			return nil, fmt.Errorf("profile: sample has %d values, want at least %d", len(rs.values), vi+1)
		}
		s := cpuSample{ns: int64(rs.values[vi])}
		for _, loc := range rs.locs {
			for _, fid := range locFuncs[loc] {
				s.frames = append(s.frames, str(funcNameIdx[fid]))
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// eachField calls fn for every field of a protobuf message: with the value
// of a varint field, or the payload of a length-delimited one. Fixed-width
// fields are skipped.
func eachField(b []byte, fn func(num int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var payload []byte
		switch wire {
		case 0: // varint
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1: // 64-bit
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
			continue
		case 2: // length-delimited
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errors.New("profile: bad length")
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		case 5: // 32-bit
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, which may arrive one value
// per field or packed into one length-delimited field.
func appendPacked(dst *[]uint64, v uint64, packed []byte) error {
	if packed == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		packed = packed[n:]
	}
	return nil
}
