package mesh

import (
	"alewife/internal/sim"
	"alewife/internal/stats"
)

// NetFault perturbs the network deterministically: each packet is delayed
// by injection jitter and independently dropped, duplicated or reordered
// with the configured probabilities, all decided by one seeded hash of a
// per-network packet counter. The same (seed, traffic) always misbehaves
// identically, so perturbed runs replay and shrink exactly like clean ones.
//
// A nil *NetFault — the normal case — injects nothing and costs one nil
// check per packet, the same contract as mem.Fault. Jitter alone keeps
// per-pair FIFO, exactly-once delivery; drops, duplicates and reorders do
// not. The network itself stays oblivious to recovery: restoring
// exactly-once FIFO delivery on top of a lossy network is the reliability
// sublayer's job (cmmu.Reliable); running the coherence protocol over a
// lossy network without it will corrupt protocol state, which is
// precisely what the checker suite is paid to notice.
type NetFault struct {
	Seed uint64 // decorrelates fault schedules between runs

	Drop    float64 // probability a packet silently vanishes
	Dup     float64 // probability a packet is delivered twice
	Reorder float64 // probability a packet is delayed past the FIFO clamp

	// ReorderMax bounds the extra delay of a reordered packet; DupMax
	// bounds the lag of a duplicate's second copy. Zero picks defaults
	// sized to overtake a handful of subsequent packets.
	ReorderMax uint64
	DupMax     uint64

	// Jitter > 0 delays every packet's injection by a seeded [0, Jitter)
	// cycles (timing-fault injection). The delay lands before routing, so
	// the per-pair FIFO clamp still orders delivery: only timing shifts,
	// and results of properly synchronized programs must be unaffected —
	// tests rely on that.
	Jitter uint64

	// Chooser, when non-nil, replaces the seeded coin: every packet's fate
	// is delegated to it instead of the probability fields above. The
	// schedule explorer uses this to enumerate fault placements
	// systematically rather than sampling them.
	Chooser FaultChooser
}

// Lossy reports whether ft can break exactly-once FIFO delivery: a
// nonzero drop, dup or reorder rate, or a Chooser. machine.New interposes
// the reliability sublayer exactly when it can; jitter alone never needs
// it.
//
//alewife:nil-safe
func (ft *NetFault) Lossy() bool {
	if ft == nil {
		return false
	}
	return ft.Drop > 0 || ft.Dup > 0 || ft.Reorder > 0 || ft.Chooser != nil
}

// Fault verdicts, exported for FaultChooser implementations.
const (
	FaultNone = iota
	FaultDrop
	FaultDup
	FaultReorder
)

// FaultChooser decides packet fates one at a time. ChooseFault is called
// with the endpoints and the per-network packet ordinal n (1-based, the
// same counter the seeded schedule hashes) and returns the verdict plus
// the fault's delay parameter: the extra cycles a duplicate's second copy
// lags, or a reordered packet is delayed. A zero delay picks the default
// magnitude (half the configured maximum); the delay is ignored for
// FaultNone and FaultDrop.
type FaultChooser interface {
	ChooseFault(src, dst int, n uint64) (kind int, delay uint64)
}

const (
	defaultReorderMax = 256
	defaultDupMax     = 64
)

func (ft *NetFault) reorderMax() uint64 {
	if ft.ReorderMax > 0 {
		return ft.ReorderMax
	}
	return defaultReorderMax
}

func (ft *NetFault) dupMax() uint64 {
	if ft.DupMax > 0 {
		return ft.DupMax
	}
	return defaultDupMax
}

// fate is one packet's NetFault outcome.
type fate struct {
	kind   int    // FaultNone, FaultDrop, FaultDup or FaultReorder
	delay  uint64 // a duplicate's lag, or a reordered packet's extra delay
	jitter uint64 // injection delay, added before routing
}

// resolve decides packet n's fate from the seeded hash of n: the low half
// picks the fault class, the high half the fault's delay (1..max cycles),
// and the hash modulo Jitter the injection jitter. An installed Chooser
// decides the class and delay instead, a zero delay picking half the max;
// jitter stays seeded.
func (ft *NetFault) resolve(src, dst int, n uint64) fate {
	h := sim.SplitMix64(n ^ sim.SplitMix64(ft.Seed))
	var f fate
	if ft.Jitter > 0 {
		f.jitter = h % ft.Jitter
	}
	if ft.Chooser != nil {
		f.kind, f.delay = ft.Chooser.ChooseFault(src, dst, n)
		if f.delay == 0 {
			switch f.kind {
			case FaultDup:
				f.delay = 1 + ft.dupMax()/2
			case FaultReorder:
				f.delay = 1 + ft.reorderMax()/2
			}
		}
		return f
	}
	u := float64(h&0xffffffff) / (1 << 32) // uniform in [0,1)
	switch {
	case u < ft.Drop:
		f.kind = FaultDrop
	case u < ft.Drop+ft.Dup:
		f.kind, f.delay = FaultDup, 1+(h>>32)%ft.dupMax()
	case u < ft.Drop+ft.Dup+ft.Reorder:
		f.kind, f.delay = FaultReorder, 1+(h>>32)%ft.reorderMax()
	}
	return f
}

// land schedules a routed packet's delivery at t per its fate — none for a
// drop, a second copy f.delay later for a dup, one f.delay late for a
// reorder — and counts the fault against src in st.
// Reorder delays land after the per-pair FIFO clamp, so a delayed packet
// genuinely arrives behind later traffic between the same endpoints.
func (f fate) land(eng *sim.Engine, st *stats.Machine, src int, t sim.Time, s sim.Sink, op uint32, p0, p1 uint64) {
	switch f.kind {
	case FaultDrop:
		st.Inc(src, stats.NetFaultDrops)
		return
	case FaultDup:
		st.Inc(src, stats.NetFaultDups)
		eng.AtSink(t+f.delay, s, op, p0, p1)
	case FaultReorder:
		st.Inc(src, stats.NetFaultReorders)
		t += f.delay
	}
	eng.AtSink(t, s, op, p0, p1)
}
