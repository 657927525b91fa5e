// Package stats is the simulator's instrumentation handle. It collects
// typed counters for a simulation run — coherence traffic, message counts
// by type, cache hits/misses, cycles stolen by interrupt handlers, link
// utilization — and carries the run's optional event trace and
// cycle-attribution profiler, so one pointer reaches all three consumers.
// Counters are plain integers — the whole simulator is single-threaded by
// construction — and are grouped per node plus machine-wide aggregates.
//
// A counter is an ID that indexes a fixed array, so counting an event is one
// indexed add; the dotted names ("cache.hits") are resolved only when a
// report asks for them.
package stats

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"alewife/internal/metrics"
	"alewife/internal/trace"
)

// ID names one counter.
type ID uint8

// Counters used across the simulator. To add one, append an ID before
// numIDs and give it a name in names.
const (
	CacheHits ID = iota
	CacheMisses
	CacheEvictions
	CacheWritebacks
	CacheUpgrades
	Prefetches
	PrefetchUseful
	DirOverflows
	DirSWTrapCycles
	ProtoMsgs
	ProtoInvals
	NetPackets
	NetFlits
	NetPacketCycles
	MsgsSent
	MsgsRecv
	MsgWords
	DMAWords
	IntStolenCycles
	ProcBusyCycles
	IdleCycles
	ThreadsCreated
	ThreadsStolen
	StealAttempts
	StealFailures
	BarrierEpisodes
	LockAcquisitions
	LockSpins
	CheckViolations
	StressOps
	NetFaultDrops
	NetFaultDups
	NetFaultReorders
	RelRetransmits
	RelTimeouts
	RelDupDrops
	RelWindowDrops
	RelAcks
	numIDs // Set.touched has one bit per ID, so this stays <= 64
)

// names holds each counter's report name, pkg.noun_verb.
var names = [numIDs]string{
	CacheHits:        "cache.hits",
	CacheMisses:      "cache.misses",
	CacheEvictions:   "cache.evictions",
	CacheWritebacks:  "cache.writebacks",
	CacheUpgrades:    "cache.upgrades",
	Prefetches:       "cache.prefetches",
	PrefetchUseful:   "cache.prefetch_useful",
	DirOverflows:     "dir.limitless_overflows",
	DirSWTrapCycles:  "dir.limitless_trap_cycles",
	ProtoMsgs:        "proto.messages",
	ProtoInvals:      "proto.invalidations",
	NetPackets:       "net.packets",
	NetFlits:         "net.flits",
	NetPacketCycles:  "net.packet_cycles",
	MsgsSent:         "cmmu.msgs_sent",
	MsgsRecv:         "cmmu.msgs_received",
	MsgWords:         "cmmu.msg_words",
	DMAWords:         "cmmu.dma_words",
	IntStolenCycles:  "proc.stolen_cycles",
	ProcBusyCycles:   "proc.busy_cycles",
	IdleCycles:       "rts.idle_cycles",
	ThreadsCreated:   "rts.threads_created",
	ThreadsStolen:    "rts.threads_stolen",
	StealAttempts:    "rts.steal_attempts",
	StealFailures:    "rts.steal_failures",
	BarrierEpisodes:  "rts.barriers",
	LockAcquisitions: "rts.lock_acquisitions",
	LockSpins:        "rts.lock_spins",
	CheckViolations:  "check.violations",
	StressOps:        "stress.ops",
	NetFaultDrops:    "net.fault_drops",
	NetFaultDups:     "net.fault_dups",
	NetFaultReorders: "net.fault_reorders",
	RelRetransmits:   "rel.retransmits",
	RelTimeouts:      "rel.timeouts",
	RelDupDrops:      "rel.dup_drops",
	RelWindowDrops:   "rel.window_drops",
	RelAcks:          "rel.acks",
}

// byName lists every ID in name order, so reports come out sorted by name
// without sorting on each call.
var byName = func() (out [numIDs]ID) {
	for i := range out {
		out[i] = ID(i)
	}
	sort.Slice(out[:], func(a, b int) bool { return names[out[a]] < names[out[b]] })
	return out
}()

// String returns the counter's report name.
func (id ID) String() string {
	if id < numIDs {
		return names[id]
	}
	return fmt.Sprintf("stats.ID(%d)", uint8(id))
}

// Set is a group of counters for one scope (a node, or the machine).
type Set struct {
	v       [numIDs]int64
	touched uint64 // bit id: counter id added to since Reset, even by zero
}

// NewSet returns an empty counter set.
func NewSet() *Set { return &Set{} }

// Add increments counter id by delta.
func (s *Set) Add(id ID, delta int64) {
	s.v[id] += delta
	s.touched |= 1 << id
}

// Inc increments counter id by one.
func (s *Set) Inc(id ID) { s.Add(id, 1) }

// Get returns the current value of a counter (zero if never touched).
func (s *Set) Get(id ID) int64 { return s.v[id] }

// ids returns the counters touched since Reset, in name order.
func (s *Set) ids() []ID {
	out := make([]ID, 0, bits.OnesCount64(s.touched))
	for _, id := range byName {
		if s.touched&(1<<id) != 0 {
			out = append(out, id)
		}
	}
	return out
}

// Names returns all touched counter names, sorted.
func (s *Set) Names() []string {
	ids := s.ids()
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = names[id]
	}
	return out
}

// Reset zeroes every counter.
func (s *Set) Reset() { *s = Set{} }

// Snapshot returns a copy of the touched counters, keyed by name.
func (s *Set) Snapshot() map[string]int64 {
	ids := s.ids()
	out := make(map[string]int64, len(ids))
	for _, id := range ids {
		out[names[id]] = s.v[id]
	}
	return out
}

// Diff returns s - prev for every counter present in either.
func (s *Set) Diff(prev map[string]int64) map[string]int64 {
	cur := s.Snapshot()
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

// Machine is a machine's one instrumentation handle: a global counter set
// plus one set per node, the event trace and the cycle-attribution
// profiler. machine.New hands the same pointer to every subsystem, so
// turning a consumer on is one field assignment. A nil *Machine is the
// disabled state, and a nil Trace or Prof turns off that consumer alone:
// every method is a no-op on what is off (enforced by the nilrecv
// analyzer), so components built without stats need no guards.
//
//alewife:nil-safe
type Machine struct {
	Global *Set
	Node   []*Set
	Trace  *trace.Buffer     // nil: no event records
	Prof   *metrics.Profiler // nil: no cycle attribution
}

// NewMachine returns stats for n nodes.
func NewMachine(n int) *Machine {
	sets := make([]Set, n+1) // one backing array: the global set, then the nodes
	m := &Machine{Global: &sets[0], Node: make([]*Set, n)}
	for i := range m.Node {
		m.Node[i] = &sets[i+1]
	}
	return m
}

// Add increments a counter on node and in the global aggregate.
func (m *Machine) Add(node int, id ID, delta int64) {
	if m == nil {
		return
	}
	m.Node[node].Add(id, delta)
	m.Global.Add(id, delta)
}

// Inc increments a counter on node and in the global aggregate.
func (m *Machine) Inc(node int, id ID) {
	if m == nil {
		return
	}
	m.Add(node, id, 1)
}

// Emit records a trace event; a no-op while tracing is off.
//
//alewife:hotpath
func (m *Machine) Emit(at uint64, node int, kind trace.Kind, arg uint64) {
	if m == nil {
		return
	}
	m.Trace.Emit(at, node, kind, arg)
}

// Charge adds cycles to a profiler bucket on node; a no-op while profiling
// is off.
//
//alewife:hotpath
func (m *Machine) Charge(node int, b metrics.Bucket, cycles uint64) {
	if m == nil {
		return
	}
	m.Prof.Add(node, b, cycles)
}

// Event counts one id on node and records it in the trace as kind with
// arg at time at: one call for an event both consumers see.
//
//alewife:hotpath
func (m *Machine) Event(node int, id ID, at uint64, kind trace.Kind, arg uint64) {
	if m == nil {
		return
	}
	m.Inc(node, id)
	m.Trace.Emit(at, node, kind, arg)
}

// Reset zeroes every counter.
func (m *Machine) Reset() {
	if m == nil {
		return
	}
	m.Global.Reset()
	for _, s := range m.Node {
		s.Reset()
	}
}

// String renders the global counters, one per line, for reports.
func (m *Machine) String() string {
	if m == nil {
		return ""
	}
	var b strings.Builder
	for _, id := range m.Global.ids() {
		fmt.Fprintf(&b, "%-28s %12d\n", names[id], m.Global.v[id])
	}
	return b.String()
}
