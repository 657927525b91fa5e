package mem

import (
	"fmt"
	"math/bits"
	"sort"

	"alewife/internal/sim"
	"alewife/internal/stats"
	"alewife/internal/trace"
)

// Violation is one invariant failure observed by the live checker.
type Violation struct {
	At    sim.Time
	Node  int // node whose transition triggered the check
	Line  Addr
	Event trace.Kind
	Msg   string
}

func (v Violation) String() string {
	return fmt.Sprintf("cycle %d: n%d %s line %#x: %s",
		v.At, v.Node, v.Event, uint64(v.Line), v.Msg)
}

// LiveChecker validates protocol invariants after every state transition,
// not just at quiescence: a mid-run bug is reported at the cycle it first
// becomes observable instead of corrupting the rest of the run. Attach one
// with Fabric.AttachChecker; a nil *LiveChecker (the default) is a no-op,
// mirroring the trace.Buffer pattern, so the hooks cost one nil check on
// runs that don't ask for checking.
//
// Invariants checked on the transitioned line after each event:
//
//	I1 single-writer/multiple-reader: at most one cache holds the line
//	   Exclusive, and an Exclusive copy excludes every other valid copy.
//	I2 exclusive-owner agreement: a cache holding the line Exclusive is the
//	   owner the home directory records (allowing an in-flight recall).
//	I3 sharer-membership agreement: a cache holding the line Shared is
//	   accounted for by the home — as a recorded sharer, as the target of an
//	   in-flight upgrade grant, as a downgraded owner under a read recall,
//	   or as a party to an in-progress invalidation round.
//	I4 directory-entry sanity: a stable Shared entry has at least one
//	   sharer; Exclusive and recall-pending entries name an owner; an
//	   invalidation round has acks outstanding.
//	I5 no lost writebacks: from the moment a dirty line leaves a cache to
//	   the moment its data lands at the home, the home entry must still be
//	   expecting data; Quiesce reports writebacks that never arrived.
type LiveChecker struct {
	f *Fabric

	// OnViolation, when non-nil, is called for every violation as it is
	// detected (tests use it to fail fast). Violations are recorded either
	// way, counted in stats under check.violations, and traced as
	// KCheckFail.
	OnViolation func(Violation)

	violations []Violation
	events     uint64

	// pendingWB tracks in-flight dirty writebacks as line -> sender nodes.
	pendingWB map[Addr][]int

	// hold is the holder index every cache keeps while the checker is
	// attached: a line's holders in O(nodes/64) instead of a probe of every
	// cache.
	hold *holderIndex

	// Scratch holder lists reused across events: the checker runs after
	// every protocol transition, so per-event allocation here would swamp
	// the pooled data path it is checking.
	exclBuf, validBuf []int
}

// AttachChecker installs a live invariant checker on the fabric and returns
// it. The caches start keeping the holder index the checker reads, seeded
// from whatever they already hold, so attaching mid-run is sound.
func (f *Fabric) AttachChecker() *LiveChecker {
	hold := newHolderIndex(f.Store, len(f.Ctrls))
	for _, c := range f.Ctrls {
		c.cache.hold, c.cache.node = hold, c.node
		c.cache.each(func(l *cline) error {
			hold.set(l.tag, c.node, l.state)
			return nil
		})
	}
	lc := &LiveChecker{f: f, hold: hold, pendingWB: make(map[Addr][]int)}
	f.Check = lc
	return lc
}

// Violations returns every violation recorded so far, in detection order.
func (lc *LiveChecker) Violations() []Violation { return lc.violations }

// Events reports how many protocol transitions were checked.
func (lc *LiveChecker) Events() uint64 { return lc.events }

// PendingWritebacks reports how many dirty writebacks are still in flight.
func (lc *LiveChecker) PendingWritebacks() int {
	n := 0
	for _, senders := range lc.pendingWB {
		n += len(senders)
	}
	return n
}

func (lc *LiveChecker) violate(kind trace.Kind, node int, line Addr, format string, args ...interface{}) {
	v := Violation{At: lc.f.Eng.Now(), Node: node, Line: line, Event: kind,
		Msg: fmt.Sprintf(format, args...)}
	lc.violations = append(lc.violations, v)
	lc.f.St.Event(node, stats.CheckViolations, v.At, trace.KCheckFail, uint64(line))
	if lc.OnViolation != nil {
		lc.OnViolation(v)
	}
}

// wbSent records a dirty line leaving a cache (called from writeback, before
// any fault injection, so a dropped writeback is still known to be due).
func (lc *LiveChecker) wbSent(node int, line Addr) {
	if lc == nil {
		return
	}
	lc.pendingWB[line] = append(lc.pendingWB[line], node)
}

// wbLanded records writeback data reaching the home.
func (lc *LiveChecker) wbLanded(node int, line Addr) {
	if lc == nil {
		return
	}
	senders := lc.pendingWB[line]
	for i, s := range senders {
		if s == node {
			senders = append(senders[:i], senders[i+1:]...)
			break
		}
	}
	if len(senders) == 0 {
		delete(lc.pendingWB, line)
	} else {
		lc.pendingWB[line] = senders
	}
}

// event runs the per-line invariants after a protocol transition. It is
// called from every Ctrl handler that mutates cache or directory state.
func (lc *LiveChecker) event(kind trace.Kind, node int, line Addr) {
	if lc == nil {
		return
	}
	lc.events++
	f := lc.f

	// Holder lists in ascending node order, the order a scan of the caches
	// would produce, so violation messages do not depend on the index.
	excl, valid := lc.exclBuf[:0], lc.validBuf[:0]
	h, vbits, xbits := lc.hold.holders(line)
	for w, v := range vbits {
		for ; v != 0; v &= v - 1 {
			n := w<<6 | bits.TrailingZeros64(v)
			valid = append(valid, n)
			if xbits[w]&(v&-v) != 0 {
				excl = append(excl, n)
			}
		}
	}
	lc.exclBuf, lc.validBuf = excl, valid

	// I1: single writer, multiple readers.
	if len(excl) > 1 {
		lc.violate(kind, node, line, "SWMR: %d exclusive holders %v", len(excl), excl)
	}
	if len(excl) == 1 && len(valid) > 1 {
		lc.violate(kind, node, line, "SWMR: node %d exclusive but %v also hold valid copies",
			excl[0], valid)
	}

	home := f.Ctrls[h]
	e := home.dir.get(line)

	// I2: an exclusive holder must be the recorded owner (a recall may be
	// in flight toward it).
	for _, n := range excl {
		if e == nil {
			lc.violate(kind, node, line, "node %d holds Exclusive but home %d has no directory entry",
				n, home.node)
			continue
		}
		switch e.state {
		case dExcl, dPendR, dPendW:
			if int(e.owner) != n {
				lc.violate(kind, node, line, "node %d holds Exclusive but home records owner %d (state %s)",
					n, e.owner, dirStateName(e.state))
			}
		default:
			lc.violate(kind, node, line, "node %d holds Exclusive but home entry is %s",
				n, dirStateName(e.state))
		}
	}

	// I3: a shared holder must be accounted for at the home. Legal shapes:
	// a recorded sharer; the target of an in-flight upgrade grant (entry
	// already Exclusive for it, possibly re-pending under a racing write
	// recall — per-pair FIFO delivers the grant before that recall); the
	// downgraded owner while a read recall's data travels home; or any party
	// to an invalidation round in progress.
	for _, n := range valid {
		if xbits[n>>6]&(1<<(n&63)) != 0 {
			continue // Exclusive: I1 and I2 cover it
		}
		legal := e != nil &&
			((e.state == dShared && e.hasSharer(n)) ||
				(e.state == dExcl && int(e.owner) == n) ||
				(e.state == dPendR && int(e.owner) == n) ||
				(e.state == dPendW && int(e.owner) == n) ||
				e.state == dPendInv)
		if !legal {
			st := "none"
			if e != nil {
				st = dirStateName(e.state)
			}
			lc.violate(kind, node, line, "node %d holds Shared but home entry %s does not account for it",
				n, st)
		}
	}

	// I4: directory-entry sanity on the stable and pending states.
	if e != nil {
		switch e.state {
		case dShared:
			if len(e.sharers) == 0 {
				lc.violate(kind, node, line, "directory Shared with no sharers")
			}
		case dExcl, dPendR, dPendW:
			if e.owner < 0 || int(e.owner) >= len(f.Ctrls) {
				lc.violate(kind, node, line, "directory %s with bad owner %d",
					dirStateName(e.state), e.owner)
			}
		case dPendInv:
			if e.pendAcks <= 0 {
				lc.violate(kind, node, line, "invalidation round with %d acks outstanding", e.pendAcks)
			}
		}
	}

	// I5: an in-flight writeback means the home must still be expecting
	// data on this line. Only an entry that is not expecting data needs
	// the lookup.
	if e != nil && (e.state == dExcl || e.state == dPendR || e.state == dPendW) {
		return
	}
	if senders := lc.pendingWB[line]; len(senders) > 0 {
		st := "none"
		if e != nil {
			st = dirStateName(e.state)
		}
		lc.violate(kind, node, line, "writeback from %v in flight but home entry is %s (lost writeback)",
			senders, st)
	}
}

// Quiesce runs the end-of-run checks that only make sense once the event
// queue has drained: the quiescence consistency sweep plus the checker's own
// lost-writeback accounting. Violations found here are recorded like live
// ones; the first error (if any) is returned.
func (lc *LiveChecker) Quiesce() error {
	var first error
	// Sort the outstanding lines: violation order (and which one becomes the
	// returned error) must not depend on map iteration order.
	lines := make([]Addr, 0, len(lc.pendingWB))
	for line := range lc.pendingWB {
		lines = append(lines, line)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	for _, line := range lines {
		senders := lc.pendingWB[line]
		lc.violate(trace.KWriteback, lc.f.Store.Home(line), line,
			"writeback from %v never arrived (lost writeback)", senders)
		if first == nil {
			first = fmt.Errorf("line %#x: writeback from %v never arrived", uint64(line), senders)
		}
	}
	if err := lc.f.CheckConsistency(); err != nil {
		lc.violate(trace.KCheckFail, 0, 0, "quiescence: %v", err)
		if first == nil {
			first = err
		}
	}
	return first
}

func dirStateName(s dirState) string {
	switch s {
	case dIdle:
		return "idle"
	case dShared:
		return "shared"
	case dExcl:
		return "excl"
	case dPendR:
		return "pendR"
	case dPendW:
		return "pendW"
	case dPendInv:
		return "pendInv"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}
