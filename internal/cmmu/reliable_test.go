package cmmu

import (
	"testing"

	"alewife/internal/mesh"
	"alewife/internal/sim"
	"alewife/internal/stats"
	"alewife/internal/trace"
)

// sinkFunc adapts a function to sim.Sink for test payloads.
type sinkFunc func(op uint32, p0, p1 uint64)

func (f sinkFunc) Fire(op uint32, p0, p1 uint64) { f(op, p0, p1) }

// send pushes one payload through r whose delivery runs f.
func send(r *Reliable, src, dst, bytes int, at sim.Time, f func()) {
	r.SendMsg(src, dst, bytes, at, sinkFunc(func(uint32, uint64, uint64) { f() }), 0, 0, 0)
}

// relHarness is a Reliable over a 2x1 lossy mesh.
func relHarness(ft *mesh.NetFault) (*sim.Engine, *Reliable, *stats.Machine) {
	eng := sim.NewEngine()
	mp := mesh.DefaultParams()
	mp.Fault = ft
	st := stats.NewMachine(2)
	r := NewReliable(eng, mesh.New(eng, 2, 1, mp, st), st)
	return eng, r, st
}

// sendBurst pushes n packets 0->1 spaced apart and
// returns the order their payloads fired in.
func sendBurst(eng *sim.Engine, r *Reliable, n int) []int {
	var order []int
	for i := 0; i < n; i++ {
		i := i
		send(r, 0, 1, 16, sim.Time(i)*40, func() { order = append(order, i) })
	}
	eng.Run()
	return order
}

func checkFIFO(t *testing.T, order []int, n int) {
	t.Helper()
	if len(order) != n {
		t.Fatalf("delivered %d payloads, want exactly %d", len(order), n)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("delivery %d carried payload %d: FIFO broken (%v...)", i, v, order[:i+1])
		}
	}
}

func TestReliableExactlyOnceFIFOUnderLoss(t *testing.T) {
	eng, r, st := relHarness(&mesh.NetFault{Seed: 11, Drop: 0.1, Dup: 0.1, Reorder: 0.1})
	order := sendBurst(eng, r, 300)
	checkFIFO(t, order, 300)
	if err := r.Quiesce(); err != nil {
		t.Fatalf("quiesce: %v", err)
	}
	if len(r.Violations()) != 0 {
		t.Fatalf("violations: %v", r.Violations())
	}
	// The lossy wires must actually have misbehaved for this to mean much.
	if st.Global.Get(stats.NetFaultDrops) == 0 {
		t.Fatal("no drops injected; test exercised nothing")
	}
	if st.Global.Get(stats.RelRetransmits) == 0 {
		t.Fatal("drops happened but nothing was retransmitted")
	}
}

func TestReliableZeroLossIsQuiet(t *testing.T) {
	eng, r, st := relHarness(nil)
	order := sendBurst(eng, r, 100)
	checkFIFO(t, order, 100)
	if err := r.Quiesce(); err != nil {
		t.Fatalf("quiesce: %v", err)
	}
	for _, c := range []stats.ID{stats.RelRetransmits, stats.RelTimeouts, stats.RelDupDrops, stats.RelWindowDrops} {
		if v := st.Global.Get(c); v != 0 {
			t.Fatalf("%s = %d on a perfect network", c, v)
		}
	}
	if st.Global.Get(stats.RelAcks) == 0 {
		t.Fatal("no acks on a delivering network")
	}
}

func TestReliableSendMsgPath(t *testing.T) {
	eng, r, _ := relHarness(&mesh.NetFault{Seed: 5, Drop: 0.15})
	var got []uint64
	s := sinkFunc(func(op uint32, p0, p1 uint64) { got = append(got, p1) })
	for i := 0; i < 100; i++ {
		r.SendMsg(0, 1, 24, sim.Time(i)*60, s, 9, 0, uint64(i))
	}
	eng.Run()
	if len(got) != 100 {
		t.Fatalf("SendMsg delivered %d/100", len(got))
	}
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("SendMsg payload order broken at %d: %d", i, v)
		}
	}
	if err := r.Quiesce(); err != nil {
		t.Fatalf("quiesce: %v", err)
	}
}

func TestReliableDupSuppression(t *testing.T) {
	eng, r, st := relHarness(&mesh.NetFault{Seed: 9, Dup: 0.5})
	order := sendBurst(eng, r, 200)
	checkFIFO(t, order, 200)
	if st.Global.Get(stats.NetFaultDups) == 0 {
		t.Fatal("no dups injected")
	}
	if st.Global.Get(stats.RelDupDrops) == 0 {
		t.Fatal("wire dups injected but none suppressed")
	}
}

func TestReliableRetryBudgetViolation(t *testing.T) {
	// A pair whose packets all vanish must exhaust its retry budget and
	// report a violation rather than spin forever.
	eng, r, st := relHarness(&mesh.NetFault{Seed: 1, Drop: 1.0})
	var seen []Violation
	r.OnViolation = func(v Violation) { seen = append(seen, v) }
	delivered := false
	send(r, 0, 1, 16, 0, func() { delivered = true })
	eng.Run()
	if delivered {
		t.Fatal("payload delivered over a 100%-loss network")
	}
	if len(seen) != 1 || len(r.Violations()) != 1 {
		t.Fatalf("violations = %v", r.Violations())
	}
	if got := st.Global.Get(stats.RelRetransmits); got != relRetries {
		t.Fatalf("retransmits = %d, want one per retry (%d)", got, relRetries)
	}
	if r.Quiesce() == nil {
		t.Fatal("quiesce passed with an undelivered packet")
	}
}

func TestReliableBackoffDoubles(t *testing.T) {
	eng, r, st := relHarness(&mesh.NetFault{Seed: 1, Drop: 1.0})
	send(r, 0, 1, 16, 0, func() {})
	eng.Run()
	if got := st.Global.Get(stats.RelTimeouts); got != relRetries+1 {
		t.Fatalf("timeouts = %d, want %d (every retry + the fatal one)", got, relRetries+1)
	}
	// Each timeout doubles the next up to the cap, so the run ends at the
	// sum of the schedule: exponential backoff, not linear retry.
	var want sim.Time
	for i, d := 0, uint64(relRTO); i <= relRetries; i, d = i+1, min(2*d, relBackoffMax) {
		want += d
	}
	if eng.Now() != want {
		t.Fatalf("run ended at %d, want %d from the backoff schedule", eng.Now(), want)
	}
}

func TestReliableTraceAndOverlayMetrics(t *testing.T) {
	eng, r, st := relHarness(&mesh.NetFault{Seed: 11, Drop: 0.2, Dup: 0.2, Reorder: 0.2})
	tb := trace.New(1 << 14)
	st.Trace = tb
	order := sendBurst(eng, r, 200)
	checkFIFO(t, order, 200)
	counts := tb.CountByKind()
	if int64(counts[trace.KRetransmit]) != st.Global.Get(stats.RelRetransmits) {
		t.Fatalf("KRetransmit events %d != counter %d",
			counts[trace.KRetransmit], st.Global.Get(stats.RelRetransmits))
	}
	if int64(counts[trace.KDupDrop]) != st.Global.Get(stats.RelDupDrops) {
		t.Fatalf("KDupDrop events %d != counter %d",
			counts[trace.KDupDrop], st.Global.Get(stats.RelDupDrops))
	}
	if counts[trace.KRetransmit] == 0 || counts[trace.KDupDrop] == 0 {
		t.Fatal("lossy run emitted no reliability trace events")
	}
}

func TestReliableDeterministicUnderLoss(t *testing.T) {
	run := func() (uint64, sim.Time) {
		eng, r, st := relHarness(&mesh.NetFault{Seed: 77, Drop: 0.1, Dup: 0.1, Reorder: 0.1})
		tb := trace.New(1 << 14)
		st.Trace = tb
		sendBurst(eng, r, 200)
		return tb.Digest(), eng.Now()
	}
	d1, t1 := run()
	d2, t2 := run()
	if d1 != d2 || t1 != t2 {
		t.Fatalf("identical lossy runs diverged: digest %x/%x end %d/%d", d1, d2, t1, t2)
	}
}

// Mutation coverage at the unit level: each seeded reliability bug must be
// caught by the layer's own oracles (the stress suite re-checks these
// end to end against the protocol checkers).
func TestReliableFaultDropAckCaught(t *testing.T) {
	eng, r, _ := relHarness(nil)
	r.Fault = &RelFault{DropAck: true}
	send(r, 0, 1, 16, 0, func() {})
	eng.Run()
	if len(r.Violations()) == 0 {
		t.Fatal("DropAck mutation survived: no retry-budget violation")
	}
}

func TestReliableFaultNoRetransmitCaught(t *testing.T) {
	eng, r, st := relHarness(&mesh.NetFault{Seed: 1, Drop: 1.0})
	r.Fault = &RelFault{NoRetransmit: true}
	send(r, 0, 1, 16, 0, func() {})
	eng.Run()
	if st.Global.Get(stats.RelRetransmits) != 0 {
		t.Fatal("NoRetransmit mutation retransmitted anyway")
	}
	if r.Quiesce() == nil {
		t.Fatal("NoRetransmit mutation survived: quiesce saw nothing pending")
	}
}

func TestReliableFaultDedupOffByOneCaught(t *testing.T) {
	eng, r, _ := relHarness(nil)
	r.Fault = &RelFault{DedupOffByOne: true}
	delivered := false
	send(r, 0, 1, 16, 0, func() { delivered = true })
	eng.Run()
	if delivered {
		t.Fatal("DedupOffByOne mutation delivered the packet it must eat")
	}
	if len(r.Violations()) == 0 {
		t.Fatal("DedupOffByOne mutation survived: no violation")
	}
}

func TestReliableFaultAcceptStaleCaught(t *testing.T) {
	// A duplicated wire packet whose original is still unacked must be
	// delivered twice under AcceptStale — visible as extra payload firings.
	eng, r, _ := relHarness(&mesh.NetFault{Seed: 9, Dup: 0.5})
	r.Fault = &RelFault{AcceptStale: true}
	fired := 0
	const n = 200
	for i := 0; i < n; i++ {
		send(r, 0, 1, 16, sim.Time(i)*40, func() { fired++ })
	}
	eng.Run()
	if fired <= n {
		t.Fatalf("AcceptStale mutation survived: %d firings for %d sends", fired, n)
	}
}
