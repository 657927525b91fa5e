package mem

import (
	"alewife/internal/metrics"
	"alewife/internal/sim"
	"alewife/internal/stats"
)

// The coherence protocol's event traffic is closure-free: every protocol
// message and every directory-pipeline continuation is a pooled sim event
// carrying (op, p0, p1), delivered to the Fabric via sim.Sink. The op word
// encodes the event kind (low 4 bits), kind-specific flags (bits 4..7) and
// the destination controller's node (bits 8 and up); p0 is always the line
// address; p1 carries the remaining operand — a requester node for messages,
// or the target node packed with the pipeline busy time for directory
// continuations (done-time = fire-time + busy, so only the duration needs
// to travel).

const (
	opReq        uint32 = iota // request at home; flagWrite; p1 = from
	opGrant                    // fill grant at requester; flagExcl = state
	opWB                       // writeback data at home; p1 = from
	opInv                      // invalidation at a sharer
	opInvAck                   // invalidation ack at home; p1 = from
	opRecall                   // recall at the owner; flagWrite
	opRecallData               // recalled data at home; p1 = from
	opDirGrant                 // pipeline slot -> grant; flagExcl, flagData; p1 = to | busy<<16
	opDirRecall                // pipeline slot -> recall send; flagWrite; p1 = owner | busy<<16
	opDirFanout                // pipeline slot -> invalidation fan-out; p1 = busy<<16
	opDirNop                   // pipeline slot with no outbound action (writeback landing)

	opKindMask  uint32 = 0xf
	flagWrite   uint32 = 1 << 4
	flagExcl    uint32 = 1 << 5
	flagData    uint32 = 1 << 6
	opNodeShift        = 8
)

// Fire implements sim.Sink: decode and dispatch one protocol event.
//
//alewife:hotpath
func (f *Fabric) Fire(op uint32, p0, p1 uint64) {
	c := f.Ctrls[op>>opNodeShift]
	line := Addr(p0)
	switch op & opKindMask {
	case opReq:
		c.reqArrive(line, int(p1), op&flagWrite != 0)
	case opGrant:
		st := Shared
		if op&flagExcl != 0 {
			st = Exclusive
		}
		c.grantArrive(line, st)
	case opWB:
		c.wbArrive(line, int(p1))
	case opInv:
		c.invArrive(line)
	case opInvAck:
		c.invAckArrive(line, int(p1))
	case opRecall:
		c.recallArrive(line, op&flagWrite != 0)
	case opRecallData:
		c.recallDataArrive(line, int(p1))
	case opDirGrant:
		st := Shared
		if op&flagExcl != 0 {
			st = Exclusive
		}
		done := f.Eng.Now() + p1>>16
		c.sendGrant(line, int(p1&0xffff), st, op&flagData != 0, done)
	case opDirRecall:
		done := f.Eng.Now() + p1>>16
		c.sendCtl(int(p1&0xffff), done, opRecall|op&flagWrite, line, 0)
	case opDirFanout:
		c.invFanout(line, f.Eng.Now()+p1>>16)
	case opDirNop:
		// Memory occupancy only; the slot itself was the point.
	}
}

// occupyOp reserves the directory/memory pipeline for `busy` cycles starting
// no earlier than now and schedules the continuation `op` (an opDir* kind)
// at the start of the slot. The continuation recovers its done-time as
// fire-time + busy.
func (c *Ctrl) occupyOp(busy uint64, op uint32, line Addr, target int) {
	eng := c.f.Eng
	t := eng.Now()
	if c.dirFreeAt > t {
		t = c.dirFreeAt
	}
	c.dirFreeAt = t + busy
	c.f.St.Charge(c.node, metrics.DirPipeline, busy)
	eng.AtSink(t, c.f, op|uint32(c.node)<<opNodeShift,
		uint64(line), uint64(target)|busy<<16)
}

// sendCtl delivers a small protocol message (INV/RECALL, already encoded in
// op with its flags) to node `to` at time `at`.
func (c *Ctrl) sendCtl(to int, at sim.Time, op uint32, line Addr, p1 uint64) {
	op |= uint32(to) << opNodeShift
	if to == c.node {
		c.f.Eng.AtSink(at, c.f, op, uint64(line), p1)
		return
	}
	c.f.St.Inc(c.node, stats.ProtoMsgs)
	c.f.Net.SendMsg(c.node, to, ctlBytes, at, c.f, op, uint64(line), p1)
}

// invFanout sends the invalidation round for a dPendInv entry: every
// recorded sharer except the upgrading requester. The target set is
// recomputed at slot-start time, which is safe because dPendInv freezes the
// sharer list — requests defer, and acks cannot arrive before these
// invalidations are sent.
func (c *Ctrl) invFanout(line Addr, done sim.Time) {
	e := c.dir.get(line)
	for _, tgt := range e.sharers {
		if tgt == int(e.pendFrom) {
			continue
		}
		c.sendCtl(tgt, done, opInv, line, 0)
	}
}
