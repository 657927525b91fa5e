package sim

import (
	"testing"
)

// pickFn adapts a function to the Chooser interface.
type pickFn func(now Time, cands []Choice) int

func (f pickFn) Choose(now Time, cands []Choice) int { return f(now, cands) }

// With a chooser that always picks the last candidate, same-cycle events
// fire in reverse seq order — the chooser really controls the schedule.
func TestChooserReversesSameCycleOrder(t *testing.T) {
	run := func(pickLast bool) []int {
		e := NewEngine()
		var order []int
		for i := 0; i < 4; i++ {
			i := i
			e.At(5, func() { order = append(order, i) })
		}
		if pickLast {
			e.SetChooser(pickFn(func(_ Time, cands []Choice) int { return len(cands) - 1 }))
		}
		e.Run()
		return order
	}
	if got := run(false); got[0] != 0 || got[3] != 3 {
		t.Fatalf("default order broken: %v", got)
	}
	if got := run(true); got[0] != 3 || got[3] != 0 {
		t.Fatalf("pick-last did not reverse same-cycle order: %v", got)
	}
}

// A chooser that always picks index 0 must reproduce the default (seq
// order) schedule exactly — installing the hook is not itself a
// perturbation.
func TestChooserPickZeroMatchesDefault(t *testing.T) {
	run := func(install bool) []int {
		e := NewEngine()
		var order []int
		for i := 0; i < 3; i++ {
			i := i
			e.At(2, func() { order = append(order, i) })
			e.At(7, func() { order = append(order, 10+i) })
		}
		if install {
			e.SetChooser(pickFn(func(_ Time, _ []Choice) int { return 0 }))
		}
		e.Run()
		return order
	}
	a, b := run(false), run(true)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pick-0 diverged from default at %d: %v vs %v", i, a, b)
		}
	}
}

// Candidates are only offered when more than one live event shares the
// minimum cycle; descriptors carry the right kinds, and a context's Node
// shows up in its wake descriptor.
func TestChooserDescriptors(t *testing.T) {
	e := NewEngine()
	var seen [][]Choice
	e.SetChooser(pickFn(func(_ Time, cands []Choice) int {
		cp := append([]Choice(nil), cands...)
		seen = append(seen, cp)
		return 0
	}))
	e.At(3, func() {})
	ctx := e.Spawn("p", 3, func(c *Context) {})
	ctx.Node = 5
	e.Run()
	if len(seen) != 1 {
		t.Fatalf("choice points: %d, want 1", len(seen))
	}
	cands := seen[0]
	if len(cands) != 2 {
		t.Fatalf("candidates: %v", cands)
	}
	if cands[0].Kind != ChoiceFn || cands[0].Node != -1 {
		t.Errorf("fn descriptor: %+v", cands[0])
	}
	if cands[1].Kind != ChoiceWake || cands[1].Node != 5 {
		t.Errorf("wake descriptor: %+v", cands[1])
	}
	if cands[0].Seq >= cands[1].Seq {
		t.Errorf("descriptors not in seq order: %+v", cands)
	}
}

// A stale wake — a context that was re-woken earlier, leaving its old
// timer record dead in the queue — must never be offered as a candidate:
// firing it is a no-op, so branching on it would only multiply equivalent
// schedules.
func TestChooserStaleWakesNotOffered(t *testing.T) {
	e := NewEngine()
	var points int
	e.SetChooser(pickFn(func(_ Time, cands []Choice) int {
		points++
		for _, c := range cands {
			if c.Kind == ChoiceWake {
				t.Errorf("stale wake offered at choice point: %+v", c)
			}
		}
		return 0
	}))
	ctx := e.Spawn("sleeper", 0, func(c *Context) {
		c.WaitUntil(100) // woken early at cycle 10; the 100-cycle record goes stale
	})
	e.At(10, func() { ctx.UnblockAt(10) })
	// Two events at cycle 100 alongside the stale wake record: the chooser
	// must see exactly these two, not three.
	e.At(100, func() {})
	e.At(100, func() {})
	e.Run()
	if points == 0 {
		t.Fatal("no choice point reached — test is vacuous")
	}
}

// A run whose queue ends in stale wakes ends at their time under a pick-0
// chooser, as it does by default: the ladder's cursor has passed them, so a
// clock left behind it would put events scheduled after the run a window
// lap late.
func TestChooserStaleWakesKeepClock(t *testing.T) {
	run := func(install bool) (Time, []Time) {
		e := NewEngine()
		if install {
			e.SetChooser(pickFn(func(_ Time, _ []Choice) int { return 0 }))
		}
		a := e.Spawn("a", 0, func(c *Context) { c.Sleep(10) })
		e.At(5, func() { a.UnblockAt(100) }) // stale once a wakes at 10 and ends
		e.Run()
		end := e.Now()
		var fired []Time
		e.At(end+1, func() {
			for _, d := range []Time{5 + ladderWindow, 5} {
				e.At(e.Now()+d, func() { fired = append(fired, e.Now()) })
			}
		})
		e.Run()
		return end, fired
	}
	wantEnd, wantFired := run(false)
	if wantEnd != 100 || len(wantFired) != 2 || wantFired[0] != 106 || wantFired[1] != 106+ladderWindow {
		t.Fatalf("default engine ended at %d and fired %v, want 100 and [106 %d]", wantEnd, wantFired, 106+ladderWindow)
	}
	end, fired := run(true)
	if end != wantEnd || len(fired) != 2 || fired[0] != wantFired[0] || fired[1] != wantFired[1] {
		t.Fatalf("pick-0 chooser ended at %d and fired %v, want %d and %v", end, fired, wantEnd, wantFired)
	}
}

// An out-of-range pick is a bug in the chooser, and the engine says so.
func TestChooserBadIndexPanics(t *testing.T) {
	e := NewEngine()
	e.SetChooser(pickFn(func(_ Time, cands []Choice) int { return len(cands) }))
	e.At(1, func() {})
	e.At(1, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range pick did not panic")
		}
	}()
	e.Run()
}
