package sim

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The same-time fairness golden pins the engine's interleaving when many
// activities fire at the same cycle: contexts sleeping to a shared target,
// gate releases, cross-context UnblockAt, plain callbacks, and contexts that
// finish mid-run. The trace was captured from the pre-baton engine (the
// central dispatch loop on the Run goroutine); the coroutine scheduler, its
// in-context dispatch and its solo-wake fast path must reproduce it byte for
// byte, because all of them dispatch strictly in (at, seq) order. Regenerate only when the intended
// ordering itself changes:
//
//	go test ./internal/sim -run TestSameTimeFairnessGolden -update-fairness
var updateFairness = flag.Bool("update-fairness", false, "rewrite the same-time fairness golden")

// fairnessScript runs a deterministic script dense with same-cycle wakes and
// returns one line per observable step ("who@cycle").
func fairnessScript() string {
	e := NewEngine()
	var log []string
	rec := func(who string, t Time) { log = append(log, fmt.Sprintf("%s@%d", who, t)) }

	// Eight contexts repeatedly sleeping to the same absolute targets: every
	// round, all eight wake records share one cycle and must fire in arming
	// order.
	const rounds = 12
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("s%d", i)
		e.Spawn(name, 0, func(c *Context) {
			for r := 1; r <= rounds; r++ {
				c.WaitUntil(Time(r * 10))
				rec(name, c.Now())
			}
		})
	}

	// A gate fired at cycle 35 releasing four waiters at once.
	g := &Gate{}
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("g%d", i)
		e.Spawn(name, 0, func(c *Context) {
			g.Wait(c)
			rec(name, c.Now())
			c.Sleep(5)
			rec(name, c.Now())
		})
	}
	e.At(35, func() { rec("fire", e.Now()); g.Fire() })

	// Two blocked contexts unblocked to the same cycle from different
	// sources, racing the sleepers' round at 50.
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("u%d", i)
		c := e.Spawn(name, 0, func(c *Context) {
			c.Block()
			rec(name, c.Now())
		})
		e.At(Time(20+i*7), func() { c.UnblockAt(50) })
	}

	// Callbacks sharing cycles with the wake storms, plus a short-lived
	// context spawned mid-run that finishes while others are still parked.
	for _, t := range []Time{10, 35, 50, 90} {
		t := t
		e.At(t, func() { rec("ev", t) })
	}
	e.At(60, func() {
		e.Spawn("late", 60, func(c *Context) {
			c.Sleep(10)
			rec("late", c.Now())
		})
	})

	e.Run()
	return strings.Join(log, "\n") + "\n"
}

func TestSameTimeFairnessGolden(t *testing.T) {
	got := fairnessScript()
	path := filepath.Join("testdata", "fairness_golden.txt")
	if *updateFairness {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update-fairness to capture): %v", err)
	}
	if got != string(want) {
		t.Errorf("same-time interleaving diverged from the pre-baton golden %s\n--- got ---\n%s\n--- want ---\n%s",
			path, got, string(want))
	}
	// Two runs in one process must agree, or a mismatch above could be
	// nondeterminism rather than an ordering change.
	if again := fairnessScript(); again != got {
		t.Fatal("same-seed reruns diverged: interleaving is nondeterministic")
	}
}
