package sim

import "testing"

// These benchmarks cover the engine's three hot paths — scheduling, event
// churn at a standing queue depth, and context switching — and are the
// before/after evidence for the pooled ladder queue (EXPERIMENTS.md §perf).
// Run with -benchmem: steady-state scheduling must be 0 allocs/op.

// BenchmarkSchedule measures one push+pop round trip: schedule an event one
// cycle ahead, drain it. This is the minimal At/Run cycle every simulated
// latency pays.
func BenchmarkSchedule(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	nop := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.At(e.Now()+1, nop)
		e.Run()
	}
}

// BenchmarkRunChurn measures event execution with a standing population of
// 512 self-rescheduling timers at mixed periods — the shape of a busy
// machine simulation (cache fills, network hops, handler timers in flight).
func BenchmarkRunChurn(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	const standing = 512
	remaining := b.N
	periods := [...]uint64{1, 2, 3, 5, 7, 11, 13, 1024}
	for i := 0; i < standing; i++ {
		d := periods[i%len(periods)]
		var fn func()
		fn = func() {
			remaining--
			if remaining > 0 {
				e.After(d, fn)
			} else {
				e.Halt()
			}
		}
		e.After(d, fn)
	}
	b.ResetTimer()
	e.Run()
}

// BenchmarkContextSwitch measures a full context round trip: wake event,
// resume handoff, Sleep re-arm, yield back to the engine.
func BenchmarkContextSwitch(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	e.Spawn("bench", 0, func(c *Context) {
		for i := 0; i < b.N; i++ {
			c.Sleep(1)
		}
	})
	b.ResetTimer()
	e.Run()
}

// BenchmarkScheduleFar measures scheduling beyond the ladder's near window
// (far-future timers take the overflow tier) so both tiers stay honest.
func BenchmarkScheduleFar(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	nop := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.At(e.Now()+100_000, nop)
		e.Run()
	}
}

// BenchmarkContextPingPong measures a context-to-context transfer: two
// contexts whose sleeps interleave, so every wake is a coroutine switch
// from the parking context through the driver to the other one.
func BenchmarkContextPingPong(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	body := func(c *Context) {
		for i := 0; i < b.N/2; i++ {
			c.Sleep(2)
		}
	}
	e.Spawn("ping", 0, body)
	e.Spawn("pong", 1, body)
	b.ResetTimer()
	e.Run()
}

// BenchmarkSpawnFinish measures a context's whole life: spawned by a
// running context, one sleep, return. Runtime threads are contexts, so this
// is the per-thread engine cost; coroutine reuse keeps it to one allocation.
func BenchmarkSpawnFinish(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	e.Spawn("spawner", 0, func(c *Context) {
		for i := 0; i < b.N; i++ {
			e.Spawn("t", c.Now(), func(t *Context) { t.Sleep(1) })
			c.Sleep(2)
		}
	})
	b.ResetTimer()
	e.Run()
}
