package stats

import (
	"fmt"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"alewife/internal/metrics"
	"alewife/internal/trace"
)

func TestSetBasics(t *testing.T) {
	s := NewSet()
	s.Inc(CacheHits)
	s.Add(CacheHits, 4)
	s.Add(CacheMisses, -2)
	if s.Get(CacheHits) != 5 || s.Get(CacheMisses) != -2 || s.Get(RelAcks) != 0 {
		t.Fatalf("counters wrong: hits=%d misses=%d", s.Get(CacheHits), s.Get(CacheMisses))
	}
	names := s.Names()
	if len(names) != 2 || names[0] != "cache.hits" || names[1] != "cache.misses" {
		t.Fatalf("names = %v", names)
	}
	s.Reset()
	if s.Get(CacheHits) != 0 || len(s.Names()) != 0 {
		t.Fatal("reset failed")
	}
}

func TestSnapshotDiff(t *testing.T) {
	s := NewSet()
	s.Add(NetFlits, 10)
	snap := s.Snapshot()
	s.Add(NetFlits, 5)
	s.Add(NetPackets, 2)
	d := s.Diff(snap)
	if d["net.flits"] != 5 || d["net.packets"] != 2 {
		t.Fatalf("diff = %v", d)
	}
	if len(d) != 2 {
		t.Fatalf("diff has spurious entries: %v", d)
	}
}

func TestMachineAggregates(t *testing.T) {
	m := NewMachine(4)
	m.Inc(1, StressOps)
	m.Add(2, StressOps, 3)
	if m.Global.Get(StressOps) != 4 {
		t.Fatalf("global = %d, want 4", m.Global.Get(StressOps))
	}
	if m.Node[1].Get(StressOps) != 1 || m.Node[2].Get(StressOps) != 3 || m.Node[0].Get(StressOps) != 0 {
		t.Fatal("per-node counts wrong")
	}
	if !strings.Contains(m.String(), "stress.ops") {
		t.Fatal("String() missing counter")
	}
	m.Reset()
	if m.Global.Get(StressOps) != 0 || m.Node[2].Get(StressOps) != 0 || m.String() != "" {
		t.Fatal("machine reset failed")
	}
}

// Property: global always equals the sum of per-node counters, for every
// counter.
func TestPropertyGlobalIsSum(t *testing.T) {
	f := func(ops []uint16) bool {
		m := NewMachine(4)
		for _, op := range ops {
			m.Add(int(op)%4, ID(op>>2)%numIDs, int64(op%7))
		}
		for id := ID(0); id < numIDs; id++ {
			var sum int64
			for _, n := range m.Node {
				sum += n.Get(id)
			}
			if m.Global.Get(id) != sum {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// The name table is the registry: every ID has one unique pkg.noun_verb
// name, and the touched mask has a bit for each.
func TestNameTable(t *testing.T) {
	if numIDs > 64 {
		t.Fatalf("%d counters do not fit the 64-bit touched mask", numIDs)
	}
	scheme := regexp.MustCompile(`^[a-z][a-z0-9]*\.[a-z][a-z0-9_]*$`)
	seen := make(map[string]ID)
	for id := ID(0); id < numIDs; id++ {
		name := names[id]
		if name == "" {
			t.Errorf("counter %d has no name", id)
			continue
		}
		if !scheme.MatchString(name) {
			t.Errorf("counter %d = %q does not match the pkg.noun_verb scheme (lowercase, one dot, snake_case suffix)", id, name)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("counter name %q registered twice (IDs %d and %d): reports would merge them", name, prev, id)
		}
		seen[name] = id
		if id.String() != name {
			t.Errorf("ID(%d).String() = %q, want %q", id, id.String(), name)
		}
	}
	if got := numIDs.String(); got != fmt.Sprintf("stats.ID(%d)", numIDs) {
		t.Errorf("out-of-range ID renders as %q", got)
	}
}

// A zero delta still creates the counter, exactly as a map assignment
// would: it shows in Names, Snapshot and String with value 0.
func TestZeroDeltaCounterIsReported(t *testing.T) {
	m := NewMachine(2)
	m.Add(1, DirSWTrapCycles, 0)
	if got := m.Global.Names(); !reflect.DeepEqual(got, []string{"dir.limitless_trap_cycles"}) {
		t.Fatalf("Names = %v", got)
	}
	if got := m.Node[1].Snapshot(); !reflect.DeepEqual(got, map[string]int64{"dir.limitless_trap_cycles": 0}) {
		t.Fatalf("Snapshot = %v", got)
	}
	if len(m.Node[0].Names()) != 0 {
		t.Fatalf("untouched node reports %v", m.Node[0].Names())
	}
	if want := fmt.Sprintf("%-28s %12d\n", "dir.limitless_trap_cycles", 0); m.String() != want {
		t.Fatalf("String = %q, want %q", m.String(), want)
	}
}

// Reports are sorted by name, not by ID: CacheHits comes before
// CacheEvictions in ID order, but cache.evictions sorts first.
func TestStringSortedByName(t *testing.T) {
	if CacheHits >= CacheEvictions {
		t.Fatal("test premise: CacheHits must precede CacheEvictions in ID order")
	}
	m := NewMachine(1)
	m.Inc(0, RelAcks)
	m.Inc(0, CacheHits)
	m.Add(0, CacheEvictions, 3)
	want := fmt.Sprintf("%-28s %12d\n%-28s %12d\n%-28s %12d\n",
		"cache.evictions", 3, "cache.hits", 1, "rel.acks", 1)
	if got := m.String(); got != want {
		t.Fatalf("String =\n%s\nwant\n%s", got, want)
	}
	if got := m.Global.Names(); !sort.StringsAreSorted(got) || len(got) != 3 {
		t.Fatalf("Names = %v", got)
	}
}

// Property: a Set reports exactly what the string-keyed map it replaces
// reported — same Names, Snapshot, Diff and String for any mix of adds,
// zero deltas and resets.
func TestPropertyMatchesMapModel(t *testing.T) {
	type op struct {
		ID    uint8
		Delta int8
		Reset bool
	}
	modelString := func(m map[string]int64) string {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, "%-28s %12d\n", k, m[k])
		}
		return b.String()
	}
	modelDiff := func(cur, prev map[string]int64) map[string]int64 {
		out := make(map[string]int64)
		for k, v := range cur {
			if d := v - prev[k]; d != 0 {
				out[k] = d
			}
		}
		for k, v := range prev {
			if _, ok := cur[k]; !ok && v != 0 {
				out[k] = -v
			}
		}
		return out
	}
	f := func(before, after []op) bool {
		m := NewMachine(1)
		model := map[string]int64{}
		apply := func(ops []op) {
			for _, o := range ops {
				if o.Reset && o.ID%8 == 0 {
					m.Reset()
					model = map[string]int64{}
					continue
				}
				id := ID(o.ID) % numIDs
				m.Add(0, id, int64(o.Delta%3))
				model[names[id]] += int64(o.Delta % 3)
			}
		}
		apply(before)
		snap := m.Global.Snapshot()
		prevModel := make(map[string]int64, len(model))
		for k, v := range model {
			prevModel[k] = v
		}
		apply(after)
		gotNames := m.Global.Names()
		wantNames := make([]string, 0, len(model))
		for k := range model {
			wantNames = append(wantNames, k)
		}
		sort.Strings(wantNames)
		return reflect.DeepEqual(snap, prevModel) &&
			reflect.DeepEqual(m.Global.Snapshot(), model) &&
			reflect.DeepEqual(m.Node[0].Snapshot(), model) &&
			reflect.DeepEqual(m.Global.Diff(snap), modelDiff(model, prevModel)) &&
			reflect.DeepEqual(gotNames, wantNames) &&
			m.String() == modelString(model)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// A nil *Machine is the disabled state: counting into it is a no-op, and
// so is every other per-event call; so are tracing and charging into a
// handle whose Trace and Prof are nil.
func TestNilMachineIsNoop(t *testing.T) {
	var m *Machine
	m.Inc(3, CacheHits)
	m.Add(3, CacheHits, 9)
	m.Emit(1, 3, trace.KMiss, 0x40)
	m.Charge(3, metrics.Compute, 7)
	m.Event(3, CacheWritebacks, 1, trace.KWriteback, 0x40)
	m.Reset()
	if m.String() != "" {
		t.Fatal("nil machine renders counters")
	}
	m = NewMachine(4)
	m.Emit(1, 3, trace.KMiss, 0x40)
	m.Charge(3, metrics.Compute, 7)
	m.Event(3, CacheWritebacks, 1, trace.KWriteback, 0x40)
	if got := m.Global.Get(CacheWritebacks); got != 1 {
		t.Fatalf("Event with tracing off counted %d, want 1", got)
	}
}

// Event feeds both consumers: one count and one trace record.
func TestEventCountsAndTraces(t *testing.T) {
	m := NewMachine(4)
	m.Trace = trace.New(8)
	m.Event(2, RelRetransmits, 30, trace.KRetransmit, 5)
	if got := m.Node[2].Get(RelRetransmits); got != 1 {
		t.Fatalf("node 2 counted %d retransmits, want 1", got)
	}
	want := []trace.Event{{At: 30, Node: 2, Kind: trace.KRetransmit, Arg: 5}}
	if got := m.Trace.Events(); !reflect.DeepEqual(got, want) {
		t.Fatalf("trace holds %v, want %v", got, want)
	}
}

// Counting is an indexed add: no hashing, no allocation; tracing and
// charging write preallocated arrays.
func TestCountingDoesNotAllocate(t *testing.T) {
	m := NewMachine(4)
	m.Trace = trace.New(16)
	m.Prof = metrics.New(4)
	for name, f := range map[string]func(){
		"Inc":    func() { m.Inc(2, NetPackets) },
		"Add":    func() { m.Add(3, NetFlits, 5) },
		"Emit":   func() { m.Emit(1, 3, trace.KMiss, 0x40) },
		"Charge": func() { m.Charge(3, metrics.NetTransit, 9) },
		"Event":  func() { m.Event(0, MsgsSent, 1, trace.KMsgSend, 4) },
	} {
		if n := testing.AllocsPerRun(1000, f); n != 0 {
			t.Fatalf("Machine.%s allocates %.1f times per call", name, n)
		}
	}
}
