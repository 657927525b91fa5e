package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// pb is a minimal protobuf encoder for building profiles by hand.
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

func (p *pb) msg(num int, m *pb) *pb { return p.bytes(num, m.b) }

func (p *pb) packed(num int, vs ...uint64) *pb {
	var body []byte
	for _, v := range vs {
		body = binary.AppendUvarint(body, v)
	}
	return p.bytes(num, body)
}

// profileBuilder assembles a CPU profile: one location per distinct stack
// position, one function per name.
type profileBuilder struct {
	strs  []string
	funcs map[string]uint64
	top   pb
	locs  uint64
}

func newProfileBuilder() *profileBuilder {
	b := &profileBuilder{strs: []string{""}, funcs: map[string]uint64{}}
	b.top.msg(profSampleType, new(pb).varint(valueTypeType, b.str("samples")).varint(2, b.str("count")))
	b.top.msg(profSampleType, new(pb).varint(valueTypeType, b.str("cpu")).varint(2, b.str("nanoseconds")))
	return b
}

func (b *profileBuilder) str(s string) uint64 {
	b.strs = append(b.strs, s)
	return uint64(len(b.strs) - 1)
}

func (b *profileBuilder) fn(name string) uint64 {
	if id, ok := b.funcs[name]; ok {
		return id
	}
	id := uint64(len(b.funcs) + 1)
	b.funcs[name] = id
	b.top.msg(profFunction, new(pb).varint(functionID, id).varint(functionName, b.str(name)).varint(4, b.str("x.go")))
	return id
}

// loc adds a location whose lines are the given functions, innermost
// (inlined) first.
func (b *profileBuilder) loc(names ...string) uint64 {
	b.locs++
	l := new(pb).varint(locationID, b.locs).varint(3, 0x1000*b.locs)
	for _, n := range names {
		l.msg(locationLine, new(pb).varint(lineFunction, b.fn(n)).varint(2, 7))
	}
	b.top.msg(profLocation, l)
	return b.locs
}

// sample adds a sample over stack, leaf first; each element is one
// location, with inlined frames separated by "+".
func (b *profileBuilder) sample(ns uint64, packed bool, stack ...string) {
	var ids []uint64
	for _, s := range stack {
		ids = append(ids, b.loc(strings.Split(s, "+")...))
	}
	s := new(pb)
	if packed {
		s.packed(sampleLocation, ids...)
		s.packed(sampleValue, 1, ns)
	} else {
		for _, id := range ids {
			s.varint(sampleLocation, id)
		}
		s.varint(sampleValue, 1).varint(sampleValue, ns)
	}
	b.top.msg(profSample, s)
}

func (b *profileBuilder) gzip(t *testing.T) []byte {
	t.Helper()
	msg := append([]byte(nil), b.top.b...)
	for _, s := range b.strs {
		msg = (&pb{b: msg}).bytes(profStrings, []byte(s)).b
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(msg); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestAttributeHandBuiltProfile(t *testing.T) {
	b := newProfileBuilder()
	// A map write under the stats counters is instrumentation.
	b.sample(100, true, "runtime.mapassign_faststr", "alewife/internal/stats.(*Set).Add",
		"alewife/internal/stats.(*Machine).Add", "alewife/internal/mem.(*Ctrl).serveRead", "runtime.goexit")
	// An idle M parking in the scheduler.
	b.sample(200, false, "runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm",
		"runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall")
	// The baton handoff: a channel receive under the engine is go-sched.
	b.sample(300, true, "runtime.lock2", "runtime.chanrecv", "runtime.chanrecv1",
		"alewife/internal/sim.(*Engine).Run", "runtime.goexit")
	// Zeroing a new store is allocation.
	b.sample(400, false, "runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.makeslice",
		"alewife/internal/mem.NewStore", "alewife/internal/machine.New", "main.main")
	// An inlined reliable-layer method is rel even inside a mesh frame.
	b.sample(500, true, "alewife/internal/cmmu.(*Reliable).dataArrive+alewife/internal/cmmu.(*Reliable).Fire",
		"alewife/internal/sim.(*Engine).dispatch", "runtime.goexit")
	b.sample(600, false, "alewife/internal/mem.(*LiveChecker).event", "alewife/internal/mem.(*Ctrl).Fire")
	b.sample(700, true, "runtime.memmove", "alewife/internal/stress.CheckHistory.func1",
		"sort.Slice", "alewife/internal/stress.CheckHistory", "alewife/internal/stress.execute")
	b.sample(800, false, "math.sin", "alewife/internal/apps.aqF+alewife/internal/apps.aqRules")
	b.sample(900, true, "runtime/pprof.(*profileBuilder).addCPUData", "runtime/pprof.profileWriter")
	b.sample(1000, false, "runtime.memmove", "runtime.goexit")
	b.sample(1100, true, "alewife/internal/swdsm.(*DSM).Read", "main.main")
	b.sample(1200, false, "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack")
	b.sample(1300, true, "alewife/internal/core.(*TC).Fork", "alewife/internal/apps.GrainParallel.func1")

	a, err := attribute(b.gzip(t))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		"instr": 100, "go-sched": 200 + 300, "go-gc": 400 + 1200, "rel": 500,
		"checkers": 600 + 700, "apps": 800, "bench": 900, "go-other": 1000 + 1100,
		"core": 1300,
	}
	if !reflect.DeepEqual(a.ns, want) {
		t.Errorf("layer totals:\n got %v\nwant %v", a.ns, want)
	}
	if a.total != 9100 {
		t.Errorf("total %d, want 9100", a.total)
	}
	if !reflect.DeepEqual(a.unmapped, []string{"alewife/internal/swdsm"}) {
		t.Errorf("unmapped packages %v, want [alewife/internal/swdsm]", a.unmapped)
	}
	var sum float64
	for _, l := range layers {
		sum += a.share(l)
	}
	if sum < 0.999999 || sum > 1.000001 {
		t.Errorf("shares sum to %v", sum)
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write([]byte{0x12, 0x05, 0x01}) // a length running past the end
	zw.Close()
	if _, err := parseProfile(buf.Bytes()); err == nil {
		t.Error("truncated message decoded without error")
	}
	if _, err := parseProfile([]byte("not gzip")); err == nil {
		t.Error("non-gzip input decoded without error")
	}
}

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"alewife/internal/mem.(*Ctrl).serveRead":              "alewife/internal/mem",
		"alewife/internal/sim.(*Engine).Spawn.func1":          "alewife/internal/sim",
		"alewife/internal/bench.parMap[go.shape.struct{...}]": "alewife/internal/bench",
		"alewife/internal/sim/fanout.Run":                     "alewife/internal/sim/fanout",
		"runtime.mallocgc":                                    "runtime",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestEveryReachedPackageHasALayer walks the benchmark's imports through
// the simulator's source and checks that every alewife package it reaches
// maps to a named layer, so no package's samples fall into go-other.
func TestEveryReachedPackageHasALayer(t *testing.T) {
	reached := map[string]bool{}
	var visit func(dir string)
	visit = func(dir string) {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			parsed, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range parsed.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				if !strings.HasPrefix(path, "alewife/") || reached[path] {
					continue
				}
				reached[path] = true
				visit(filepath.Join("..", strings.TrimPrefix(path, "alewife/")))
			}
		}
	}
	visit(".")
	var pkgs []string
	for p := range reached {
		pkgs = append(pkgs, p)
	}
	sort.Strings(pkgs)
	if len(pkgs) < 5 {
		t.Fatalf("walked only %v; is the simulator source at ..?", pkgs)
	}
	for _, p := range pkgs {
		if _, err := os.Stat(filepath.Join("..", strings.TrimPrefix(p, "alewife/"))); err != nil {
			t.Errorf("%s: %v", p, err)
		}
		l, ok := pkgLayers[p]
		if !ok {
			t.Errorf("package %s is reached by the workloads but has no layer", p)
			continue
		}
		if l == "go-other" || !slices.Contains(layers, l) {
			t.Errorf("package %s maps to %q, not a named layer", p, l)
		}
	}
	t.Logf("reached %v", pkgs)
}

func TestClassifyWalksFromTheLeaf(t *testing.T) {
	for _, tc := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.mapaccess2_faststr", "alewife/internal/stats.(*Set).Get"}, "instr"},
		{[]string{"runtime.mallocgc", "runtime.growslice", "alewife/internal/stress.execute.func1"}, "go-gc"},
		{[]string{"runtime.selectgo", "alewife/internal/sim.(*Context).Sleep"}, "go-sched"},
		{[]string{"alewife/internal/cmmu.(*Checker).handlerStart", "alewife/internal/cmmu.(*CMMU).dispatch"}, "checkers"},
		{[]string{"alewife/internal/cmmu.(*CMMU).dispatch", "alewife/internal/cmmu.(*Reliable).Fire"}, "cmmu"},
		{[]string{"fmt.Sprintf", "alewife/internal/machine.(*Machine).Spawn"}, "machine"},
		{[]string{"runtime.sigprof", "runtime.sighandler"}, "bench"},
		{[]string{"runtime.chanrecv1", "main.probe", "main.runPhase"}, "bench"},
		{[]string{"runtime.chansend1", "alewife/e2ebench.probe.func1"}, "bench"},
		{nil, "go-other"},
	} {
		if got := classify(tc.frames); got != tc.want {
			t.Errorf("classify(%v) = %s, want %s", tc.frames, got, tc.want)
		}
	}
}
