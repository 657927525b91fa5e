package stress

import (
	"fmt"

	"alewife/internal/mem"
	"alewife/internal/sim"
)

// HistOp is one observed load or store: the executor appends one record, in
// global execution order, for every tracked access the moment its value
// touches the authoritative store. Every store carries a value unique across
// the run, so a load's result identifies exactly which store it observed.
type HistOp struct {
	Node  int
	Loc   mem.Addr
	Write bool
	Val   uint64
	At    sim.Time
}

func (h HistOp) String() string {
	k := "load "
	if h.Write {
		k = "store"
	}
	return fmt.Sprintf("cycle %-8d n%-3d %s %#x = %#x", h.At, h.Node, k, uint64(h.Loc), h.Val)
}

// CheckHistory verifies that an observed history is sequentially consistent
// per location: for every location there is a serialization of its writes
// (the order their values reached the store) such that
//
//   - every read returns the initial value (0) or the value of some write to
//     that location that precedes the read in the history (writes are
//     uniquely identified by value — duplicates are themselves a violation);
//   - each node's view of a location moves monotonically forward through the
//     write serialization: having observed write k, a node's later reads may
//     not return write j < k;
//   - a node's read after its own write to the location returns that write
//     or a later one (read-own-write).
//
// It returns every violation found, formatted with the op that exposed it.
func CheckHistory(ops []HistOp) []string {
	var bad []string
	nodes, writes := 0, 0
	for _, op := range ops {
		if op.Node >= nodes {
			nodes = op.Node + 1
		}
		if op.Write {
			writes++
		}
	}
	// Locations are numbered densely in order of first appearance. Per
	// location: its write count, the write serialization index of each
	// value, and each node's observation floor (latest serialization index
	// it has seen; -1, the initial value, constrains nothing, so it also
	// stands for "nothing seen yet").
	type locVal struct {
		loc int
		val uint64
	}
	locs := make(map[mem.Addr]int)
	writeIdx := make(map[locVal]int, writes)
	var writeCnt []int
	var floor []int // location-major, nodes entries per location

	for i, op := range ops {
		l, ok := locs[op.Loc]
		if !ok {
			l = len(writeCnt)
			locs[op.Loc] = l
			writeCnt = append(writeCnt, 0)
			for n := 0; n < nodes; n++ {
				floor = append(floor, -1)
			}
		}
		fl := floor[l*nodes : (l+1)*nodes]
		key := locVal{l, op.Val}
		if op.Write {
			if prev, dup := writeIdx[key]; dup {
				bad = append(bad, fmt.Sprintf("history[%d] %v: duplicate write value (first at write #%d) — writes not serializable by value", i, op, prev))
				continue
			}
			idx := writeCnt[l]
			writeIdx[key] = idx
			writeCnt[l] = idx + 1
			// The writer has certainly observed its own write.
			fl[op.Node] = idx
			continue
		}
		// Read: identify the write it observed.
		idx := -1 // initial value
		if op.Val != 0 {
			wi, ok := writeIdx[key]
			if !ok {
				bad = append(bad, fmt.Sprintf("history[%d] %v: read returned a value never written to the location", i, op))
				continue
			}
			idx = wi
		}
		if prev := fl[op.Node]; idx < prev {
			bad = append(bad, fmt.Sprintf("history[%d] %v: read went backward — node had observed write #%d of the location, now sees #%d", i, op, prev, idx))
			continue
		}
		fl[op.Node] = idx
	}
	return bad
}
