package mesh

import (
	"testing"

	"alewife/internal/sim"
)

func idealNet(n int, ft *NetFault) (*sim.Engine, *Ideal) {
	eng := sim.NewEngine()
	return eng, &Ideal{Eng: eng, N: n, Fault: ft}
}

// scriptChooser replays a fixed verdict per packet ordinal (1-based);
// packets beyond the script are delivered.
type scriptChooser struct {
	verdicts []int
	asked    int
}

func (s *scriptChooser) ChooseFault(src, dst int, n uint64) (int, uint64) {
	s.asked++
	if int(n) <= len(s.verdicts) {
		return s.verdicts[int(n)-1], 0
	}
	return FaultNone, 0
}

// The contention-free network honors the fault chooser exactly: a scripted
// drop loses the packet, a scripted dup delivers two copies, and every
// packet consults the chooser with its 1-based ordinal.
func TestIdealFaultChooserDelegation(t *testing.T) {
	sc := &scriptChooser{verdicts: []int{FaultNone, FaultDrop, FaultDup}}
	eng, net := idealNet(2, &NetFault{Chooser: sc})
	got := 0
	for i := 0; i < 5; i++ {
		send(net, 0, 1, 16, sim.Time(i)*100, func() { got++ })
	}
	eng.Run()
	// 5 packets: deliver, drop, dup (2 copies), deliver, deliver = 5 arrivals.
	if got != 5 {
		t.Fatalf("delivered %d, want 5 (deliver,drop,dup,deliver,deliver)", got)
	}
	if sc.asked != 5 {
		t.Fatalf("chooser consulted %d times, want 5", sc.asked)
	}
}

// SendMsg (the pooled path) goes through the same fault logic.
func TestIdealFaultChooserSendMsg(t *testing.T) {
	sc := &scriptChooser{verdicts: []int{FaultDup, FaultDrop}}
	eng, net := idealNet(2, &NetFault{Chooser: sc})
	cs := &countSink{}
	for i := 0; i < 3; i++ {
		net.SendMsg(0, 1, 16, sim.Time(i)*100, cs, 7, 0, 0)
	}
	eng.Run()
	// dup (2 copies) + drop + deliver = 3 arrivals.
	if cs.fired != 3 {
		t.Fatalf("sink fired %d, want 3", cs.fired)
	}
}

type countSink struct{ fired int }

func (c *countSink) Fire(op uint32, p0, p1 uint64) { c.fired++ }

// An installed chooser overrides the seeded verdict stream entirely: even
// a 100% drop rate delivers everything when the chooser says deliver.
func TestResolveChooserOverridesSeed(t *testing.T) {
	ft := &NetFault{Seed: 7, Drop: 1.0, Chooser: &scriptChooser{}}
	for n := uint64(1); n <= 20; n++ {
		if kind := ft.resolve(0, 1, n).kind; kind != FaultNone {
			t.Fatalf("packet %d: kind %d, want FaultNone from chooser", n, kind)
		}
	}
}

// Without a chooser, the ideal network's seeded faults behave like the
// mesh's: a drop rate loses packets, and delivery count plus losses is
// conserved.
func TestIdealSeededFaults(t *testing.T) {
	eng, net := idealNet(2, &NetFault{Seed: 7, Drop: 0.3})
	got := 0
	const n = 200
	for i := 0; i < n; i++ {
		send(net, 0, 1, 16, sim.Time(i)*100, func() { got++ })
	}
	eng.Run()
	if got == 0 || got == n {
		t.Fatalf("30%% drop over %d packets delivered %d — faults not applied", n, got)
	}
}

// A duplicated packet's second copy must not violate the pair FIFO floor
// for later packets — the dup is scheduled at a strictly later time, and
// subsequent sends still arrive after their own clamps.
func TestIdealDupKeepsFIFO(t *testing.T) {
	sc := &scriptChooser{verdicts: []int{FaultDup}}
	eng, net := idealNet(2, &NetFault{Chooser: sc})
	var arrivals []sim.Time
	for i := 0; i < 3; i++ {
		send(net, 0, 1, 16, 0, func() { arrivals = append(arrivals, eng.Now()) })
	}
	eng.Run()
	if len(arrivals) != 4 {
		t.Fatalf("arrivals: %v", arrivals)
	}
	first := arrivals[0]
	for _, at := range arrivals[1:] {
		if at <= first {
			t.Fatalf("later arrival %d not after first %d: %v", at, first, arrivals)
		}
		first = at
	}
}
