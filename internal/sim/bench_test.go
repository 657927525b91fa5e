package sim

import "testing"

// These benchmarks cover the engine's three hot paths — scheduling, event
// churn at a standing queue depth, and context switching — and are the
// before/after evidence for the pooled ladder queue (EXPERIMENTS.md §perf).
// Run with -benchmem: steady-state scheduling must be 0 allocs/op.

// nopSink is a sink event that does nothing.
type nopSink struct{}

func (nopSink) Fire(uint32, uint64, uint64) {}

// BenchmarkSchedule measures one push+pop round trip: schedule a sink event
// one cycle ahead, drain it. This is the minimal AtSink/Run cycle every
// simulated latency pays.
func BenchmarkSchedule(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.AtSink(e.Now()+1, nopSink{}, 0, 0, 0)
		e.Run()
	}
}

// churnPeriods are the periods of a churn population's timers.
var churnPeriods = [...]uint64{1, 2, 3, 5, 7, 11, 13, 1024}

// churn is a standing population of self-rescheduling timers, one sink
// for all of them: a timer's op indexes its period. It halts the engine
// once remaining events have fired.
type churn struct {
	e         *Engine
	remaining int
}

func (s *churn) Fire(op uint32, _, _ uint64) {
	s.remaining--
	if s.remaining > 0 {
		s.e.AtSink(s.e.Now()+churnPeriods[op], s, op, 0, 0)
	} else {
		s.e.Halt()
	}
}

// BenchmarkRunChurn measures event execution with a standing population of
// 512 self-rescheduling timers at mixed periods — the shape of a busy
// machine simulation (cache fills, network hops, handler timers in flight).
func BenchmarkRunChurn(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	s := &churn{e: e, remaining: b.N}
	for i := 0; i < 512; i++ {
		op := uint32(i % len(churnPeriods))
		e.AtSink(churnPeriods[op], s, op, 0, 0)
	}
	b.ResetTimer()
	e.Run()
}

// BenchmarkContextSwitch measures a lone context's Sleep: arm the wake,
// then the context's own dispatch loop pops it and the context continues
// with no coroutine switch (a self-wake).
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.AtSink(e.Now()+100_000, nopSink{}, 0, 0, 0)
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

// BenchmarkSpawnFinish measures a context's whole life: started by a
// running context, one sleep, return. Runtime threads are contexts, so this
// is the per-thread engine cost. Coroutine reuse keeps a fresh Spawn to one
// allocation, the Context; Respawn of a finished context, the path runtime
// threads take, allocates nothing.
func BenchmarkSpawnFinish(b *testing.B) {
	body := func(t *Context) { t.Sleep(1) }
	for _, reuse := range []bool{false, true} {
		name := "spawn"
		if reuse {
			name = "respawn"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			e := NewEngine()
			e.Spawn("spawner", 0, func(c *Context) {
				var t *Context
				for i := 0; i < b.N; i++ {
					if !reuse {
						t = nil
					}
					t = e.Respawn(t, "t", 0, c.Now(), body)
					c.Sleep(2)
				}
			})
			b.ResetTimer()
			e.Run()
		})
	}
}
