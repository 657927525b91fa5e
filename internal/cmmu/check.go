package cmmu

import (
	"fmt"

	"alewife/internal/sim"
	"alewife/internal/stats"
	"alewife/internal/trace"
)

// Violation is one network-interface invariant failure.
type Violation struct {
	At   sim.Time
	Node int
	Msg  string
}

func (v Violation) String() string {
	return fmt.Sprintf("cycle %d: n%d cmmu: %s", v.At, v.Node, v.Msg)
}

// Checker validates the network interface's delivery discipline live: message
// handlers run atomically at interrupt level (never nested on a node), never
// while the node has interrupts masked, and never while an earlier packet
// still occupies the input port. One Checker is shared by every CMMU of a
// machine; a nil *Checker is a no-op, mirroring the trace.Buffer pattern.
type Checker struct {
	// OnViolation, when non-nil, is called for each violation as detected.
	OnViolation func(Violation)

	violations []Violation
	events     uint64
	depth      []int // per-node handler nesting depth, grown to the highest node seen
}

// NewChecker returns an empty checker; install it on each CMMU's Check field
// before running.
func NewChecker() *Checker {
	return &Checker{}
}

// Violations returns every violation recorded so far, in detection order.
func (ck *Checker) Violations() []Violation { return ck.violations }

// Events reports how many handler executions were checked.
func (ck *Checker) Events() uint64 { return ck.events }

func (ck *Checker) violate(c *CMMU, format string, args ...interface{}) {
	v := Violation{At: c.eng.Now(), Node: c.node, Msg: fmt.Sprintf(format, args...)}
	ck.violations = append(ck.violations, v)
	c.st.Event(c.node, stats.CheckViolations, v.At, trace.KCheckFail, 0)
	if ck.OnViolation != nil {
		ck.OnViolation(v)
	}
}

// handlerStart runs just before a message handler is invoked.
func (ck *Checker) handlerStart(c *CMMU, msgType int) {
	if ck == nil {
		return
	}
	ck.events++
	if c.masked {
		ck.violate(c, "handler for message type %d running with interrupts masked", msgType)
	}
	if now := c.eng.Now(); c.rxFreeAt > now {
		ck.violate(c, "handler for message type %d started at %d but input port busy until %d",
			msgType, now, c.rxFreeAt)
	}
	if c.node >= len(ck.depth) {
		ck.depth = append(ck.depth, make([]int, c.node+1-len(ck.depth))...)
	}
	ck.depth[c.node]++
	if d := ck.depth[c.node]; d > 1 {
		ck.violate(c, "handler atomicity: %d handlers nested on the node", d)
	}
}

// handlerEnd runs after the handler returns.
func (ck *Checker) handlerEnd(c *CMMU) {
	if ck == nil {
		return
	}
	ck.depth[c.node]--
}

// Fault injects deliberate delivery-discipline mutations for the checker's
// own regression tests; nil injects nothing.
type Fault struct {
	// DrainMasked delivers messages immediately even while the node has
	// interrupts masked. Caught by: masked-delivery check.
	DrainMasked bool
}

func (ft *Fault) drainMasked() bool { return ft != nil && ft.DrainMasked }
