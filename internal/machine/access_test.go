package machine_test

import (
	"reflect"
	"testing"

	"alewife/internal/machine"
	"alewife/internal/mem"
	"alewife/internal/sim"
	"alewife/internal/stats"
)

// accessKind is the access an accessCase measures.
type accessKind uint8

const (
	kindRead accessKind = iota
	kindWrite
	kindTestSet
	kindFetchAdd
	kindCompareSwap
)

// accessResult is what one measured access did: its value (a load's or a
// test-and-set's old word), the word it left in memory, the engine clock and the processor's logical
// time after it, the counters it moved, and every park BlockNote saw, all
// from the access's start.
type accessResult struct {
	val, word          uint64
	clock, now         uint64
	hits, misses, upgr int64
	useful, busy       int64
	notes              [][2]uint64
}

// accessCases covers each way an access can end on node 0 of a 2-node
// machine, for a word homed on node 1 that holds 42. Every access starts
// with 5 cycles of run-ahead to pay.
var accessCases = []struct {
	name string
	sc   bool
	// setup runs first; a is the measured word, others are four more
	// lines homed on node 1.
	setup func(p *machine.Proc, a mem.Addr, others []mem.Addr)
	kind  accessKind
	want  accessResult
}{
	{"fast-hit", false, func(p *machine.Proc, a mem.Addr, _ []mem.Addr) { p.Read(a) }, kindRead,
		accessResult{word: 42, val: 42, clock: 0, now: 6, hits: 1, busy: 0}},
	{"clean-miss", false, nil, kindRead,
		accessResult{word: 42, val: 42, clock: 43, now: 45, misses: 1, busy: 5, notes: [][2]uint64{{5, 43}}}},
	{"upgrade", false, func(p *machine.Proc, a mem.Addr, _ []mem.Addr) { p.Read(a) }, kindWrite,
		accessResult{word: 7, clock: 29, now: 31, upgr: 1, busy: 5, notes: [][2]uint64{{5, 29}}}},
	{"atomic-held", false, func(p *machine.Proc, a mem.Addr, _ []mem.Addr) { p.Write(a, 42) }, kindTestSet,
		accessResult{word: 1, val: 42, clock: 5, now: 7, busy: 5}},
	{"atomic-reprobe-miss", false, func(p *machine.Proc, a mem.Addr, _ []mem.Addr) { p.Prefetch(a, false) }, kindTestSet,
		accessResult{word: 1, val: 42, clock: 61, now: 63, misses: 1, upgr: 1, useful: 1, busy: 5, notes: [][2]uint64{{5, 37}, {37, 61}}}},
	{"prefetch-penalty", false, func(p *machine.Proc, a mem.Addr, _ []mem.Addr) {
		p.Prefetch(a, false)
		p.Elapse(300)
		p.Flush()
	}, kindWrite, accessResult{word: 7, clock: 93, now: 95, upgr: 2, busy: 5, notes: [][2]uint64{{69, 93}}}},
	{"full-buffer", false, func(p *machine.Proc, _ mem.Addr, others []mem.Addr) {
		for _, o := range others {
			p.Prefetch(o, false)
		}
	}, kindRead, accessResult{word: 42, val: 42, clock: 86, now: 88, misses: 1, busy: 5, notes: [][2]uint64{{5, 34}, {34, 86}}}},
	{"atomic-full-buffer", false, func(p *machine.Proc, _ mem.Addr, others []mem.Addr) {
		for _, o := range others {
			p.Prefetch(o, true)
		}
	}, kindTestSet, accessResult{word: 1, val: 42, clock: 86, now: 88, misses: 1, busy: 5, notes: [][2]uint64{{5, 34}, {34, 86}}}},
	{"fetch-add-miss", false, nil, kindFetchAdd,
		accessResult{word: 45, val: 42, clock: 43, now: 45, misses: 1, busy: 5, notes: [][2]uint64{{5, 43}}}},
	{"compare-swap-miss", false, nil, kindCompareSwap,
		accessResult{word: 9, val: 1, clock: 43, now: 45, misses: 1, busy: 5, notes: [][2]uint64{{5, 43}}}},
	{"seq-consistent", true, nil, kindRead,
		accessResult{word: 42, val: 42, clock: 43, now: 45, misses: 1, busy: 5, notes: [][2]uint64{{5, 43}}}},
	{"seq-consistent-hit", true, func(p *machine.Proc, a mem.Addr, _ []mem.Addr) { p.Read(a) }, kindRead,
		accessResult{word: 42, val: 42, clock: 5, now: 6, hits: 1, busy: 5}},
}

// runAccessCase runs one case on a fresh machine, taking the measured
// access with access, and returns what it did.
func runAccessCase(t *testing.T, sc bool, setup func(*machine.Proc, mem.Addr, []mem.Addr),
	access func(p *machine.Proc, a mem.Addr) uint64) accessResult {
	t.Helper()
	cfg := machine.DefaultConfig(2)
	cfg.SeqConsistent = sc
	m := machine.New(cfg)
	a := m.Store.AllocOn(1, mem.LineWords)
	others := make([]mem.Addr, 4)
	for i := range others {
		others[i] = m.Store.AllocOn(1, mem.LineWords)
	}
	m.Store.Write(a, 42)
	get := func(id stats.ID) int64 { return m.St.Global.Get(id) }
	var r accessResult
	m.Spawn(0, 0, "acc", func(p *machine.Proc) {
		if setup != nil {
			setup(p, a, others)
		}
		p.Flush()
		p.Elapse(5)
		t0 := p.Ctx.Now()
		hits, misses, upgr := get(stats.CacheHits), get(stats.CacheMisses), get(stats.CacheUpgrades)
		useful, busy := get(stats.PrefetchUseful), get(stats.ProcBusyCycles)
		p.Ctx.BlockNote = func(parked, woke uint64) { r.notes = append(r.notes, [2]uint64{parked - t0, woke - t0}) }
		r.val = access(p, a)
		r.word = p.Store().Read(a)
		p.Ctx.BlockNote = nil
		r.clock, r.now = p.Ctx.Now()-t0, p.Now()-t0
		r.hits, r.misses, r.upgr = get(stats.CacheHits)-hits, get(stats.CacheMisses)-misses, get(stats.CacheUpgrades)-upgr
		r.useful, r.busy = get(stats.PrefetchUseful)-useful, get(stats.ProcBusyCycles)-busy
	})
	m.Run()
	return r
}

// coroutineAccess takes the case's access with the coroutine forms.
func coroutineAccess(kind accessKind) func(p *machine.Proc, a mem.Addr) uint64 {
	return func(p *machine.Proc, a mem.Addr) uint64 {
		switch kind {
		case kindRead:
			return p.Read(a)
		case kindWrite:
			p.Write(a, 7)
			return 0
		case kindTestSet:
			return p.TestSet(a)
		case kindFetchAdd:
			return p.FetchAdd(a, 3)
		default:
			if p.CompareSwap(a, 42, 9) {
				return 1
			}
			return 0
		}
	}
}

// chainAccess is a chain of steps that takes one step-form access
// (Proc.StepRead, StepWrite, StepTestSet) and resumes the processor once
// it is done.
type chainAccess struct {
	p       *machine.Proc
	kind    accessKind
	a       mem.Addr
	started bool
	val     uint64
}

func (s *chainAccess) AtWake(*sim.Context) bool {
	if !s.started {
		s.started = true
		var armed bool
		switch s.kind {
		case kindRead:
			armed = s.p.StepRead(s.a, s)
		case kindWrite:
			armed = s.p.StepWrite(s.a, 7, s)
		default:
			armed = s.p.StepTestSet(s.a, s)
		}
		if armed {
			return false
		}
	}
	if s.kind != kindWrite {
		s.val = s.p.Val()
	}
	return true
}

// chainedAccess takes the case's access as a step-form access inside a
// chain a body starts with RunStep.
func chainedAccess(kind accessKind) func(p *machine.Proc, a mem.Addr) uint64 {
	return func(p *machine.Proc, a mem.Addr) uint64 {
		s := &chainAccess{p: p, kind: kind, a: a}
		p.Ctx.RunStep(s)
		return s.val
	}
}

// TestAccessForms pins what each kind of access does: its value, cycles,
// counters and parks. Loads, stores and test-and-sets run both ways, as a
// coroutine access and as a step-form access inside a chain; the wants
// were captured from the coroutine forms before the chain was the one miss
// path, when Ctrl.Finish waited out the miss on the processor's coroutine.
func TestAccessForms(t *testing.T) {
	for _, tc := range accessCases {
		t.Run(tc.name, func(t *testing.T) {
			got := runAccessCase(t, tc.sc, tc.setup, coroutineAccess(tc.kind))
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("coroutine access: %+v, want %+v", got, tc.want)
			}
			if tc.kind > kindTestSet {
				return // no step form
			}
			got = runAccessCase(t, tc.sc, tc.setup, chainedAccess(tc.kind))
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("access in a chain: %+v, want %+v", got, tc.want)
			}
		})
	}
}
