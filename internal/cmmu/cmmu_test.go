package cmmu_test

import (
	"fmt"
	"strings"
	"testing"

	"alewife/internal/cmmu"
	"alewife/internal/machine"
	"alewife/internal/mem"
	"alewife/internal/sim"
	"alewife/internal/stats"
)

// The CMMU is tested through the machine layer, which is how the runtime
// uses it; machine_test covers the Proc facade itself.

const (
	mtPing = iota + 1
	mtPong
	mtBulk
)

func newM(n int) *machine.Machine { return machine.New(machine.DefaultConfig(n)) }

func TestPingPong(t *testing.T) {
	m := newM(4)
	var pingAt, pongAt sim.Time
	var gotOps []uint64

	m.Nodes[3].CMMU.Register(mtPing, func(e *cmmu.Env) {
		e.ReadOps(len(e.Ops))
		gotOps = append([]uint64{}, e.Ops...)
		pingAt = e.Now()
		e.Reply(cmmu.Descriptor{Type: mtPong, Dst: e.Src})
	})
	m.Nodes[0].CMMU.Register(mtPong, func(e *cmmu.Env) { pongAt = e.Now() })

	m.Spawn(0, 0, "sender", func(p *machine.Proc) {
		p.SendMessage(cmmu.Descriptor{Type: mtPing, Dst: 3, Ops: []uint64{7, 9}})
	})
	m.Run()
	if len(gotOps) != 2 || gotOps[0] != 7 || gotOps[1] != 9 {
		t.Fatalf("operands = %v, want [7 9]", gotOps)
	}
	if pingAt == 0 || pongAt <= pingAt {
		t.Fatalf("round trip broken: ping %d pong %d", pingAt, pongAt)
	}
	if m.St.Global.Get(stats.MsgsSent) != 2 || m.St.Global.Get(stats.MsgsRecv) != 2 {
		t.Fatalf("message counts: sent=%d recv=%d, want 2/2",
			m.St.Global.Get(stats.MsgsSent), m.St.Global.Get(stats.MsgsRecv))
	}
}

func TestSenderFreeAfterLaunch(t *testing.T) {
	// Tinvoker: the sender's cost is describe+launch only, far below the
	// delivery latency.
	m := newM(4)
	m.Nodes[3].CMMU.Register(mtPing, func(e *cmmu.Env) {})
	var senderDone sim.Time
	var delivered sim.Time
	m.Nodes[3].CMMU.Register(mtPong, func(e *cmmu.Env) {})
	m.Spawn(0, 0, "s", func(p *machine.Proc) {
		p.SendMessage(cmmu.Descriptor{Type: mtPing, Dst: 3, Ops: []uint64{1, 2, 3, 4}})
		p.Flush()
		senderDone = p.Ctx.Now()
	})
	m.Nodes[3].CMMU.Register(mtBulk, func(e *cmmu.Env) {})
	m.Run()
	delivered = m.Eng.Now()
	if senderDone == 0 || senderDone > 30 {
		t.Fatalf("sender busy %d cycles, want a handful (describe+launch)", senderDone)
	}
	if delivered <= senderDone {
		t.Fatalf("delivery (%d) not after sender freed (%d)", delivered, senderDone)
	}
}

func TestBulkDMATransfer(t *testing.T) {
	// Region gather at the source, storeback scatter at the destination —
	// the paper's memory-to-memory transfer primitive.
	m := newM(4)
	const words = 64
	src := m.Store.AllocOn(0, words)
	dst := m.Store.AllocOn(3, words)
	for i := uint64(0); i < words; i++ {
		m.Store.Write(src+mem.Addr(i), 100+i)
	}
	var doneAt sim.Time
	m.Nodes[3].CMMU.Register(mtBulk, func(e *cmmu.Env) {
		e.ReadOps(1)
		base := mem.Addr(e.Ops[0])
		e.Storeback(base, e.Data)
		doneAt = e.Now()
	})
	m.Spawn(0, 0, "s", func(p *machine.Proc) {
		p.SendMessage(cmmu.Descriptor{
			Type:    mtBulk,
			Dst:     3,
			Ops:     []uint64{uint64(dst)},
			Regions: []cmmu.Region{{Base: src, Words: words}},
		})
	})
	m.Run()
	for i := uint64(0); i < words; i++ {
		if got := m.Store.Read(dst + mem.Addr(i)); got != 100+i {
			t.Fatalf("dst[%d] = %d, want %d", i, got, 100+i)
		}
	}
	if doneAt == 0 {
		t.Fatal("bulk handler never ran")
	}
	if m.St.Global.Get(stats.DMAWords) != words {
		t.Fatalf("DMA words = %d, want %d", m.St.Global.Get(stats.DMAWords), words)
	}
}

func TestDMACarriesValuesAtSendTime(t *testing.T) {
	// The packet must snapshot memory when it is injected, not when it
	// lands: the source may overwrite the buffer right after launch.
	m := newM(2)
	src := m.Store.AllocOn(0, 2)
	dst := m.Store.AllocOn(1, 2)
	m.Store.Write(src, 11)
	m.Nodes[1].CMMU.Register(mtBulk, func(e *cmmu.Env) {
		e.Storeback(dst, e.Data)
	})
	m.Spawn(0, 0, "s", func(p *machine.Proc) {
		p.SendMessage(cmmu.Descriptor{
			Type: mtBulk, Dst: 1,
			Regions: []cmmu.Region{{Base: src, Words: 1}},
		})
		p.Write(src, 99) // overwrite immediately after launch
	})
	m.Run()
	if got := m.Store.Read(dst); got != 11 {
		t.Fatalf("dst = %d, want snapshot 11", got)
	}
}

func TestInterruptMasking(t *testing.T) {
	m := newM(2)
	var handled []sim.Time
	m.Nodes[1].CMMU.Register(mtPing, func(e *cmmu.Env) {
		handled = append(handled, e.Now())
	})
	m.Spawn(0, 0, "s", func(p *machine.Proc) {
		p.SendMessage(cmmu.Descriptor{Type: mtPing, Dst: 1})
		p.SendMessage(cmmu.Descriptor{Type: mtPing, Dst: 1})
	})
	m.Spawn(1, 0, "r", func(p *machine.Proc) {
		p.MaskInterrupts()
		p.Elapse(500)
		p.UnmaskInterrupts()
	})
	m.Run()
	if len(handled) != 2 {
		t.Fatalf("handled %d messages, want 2", len(handled))
	}
	for _, at := range handled {
		if at < 500 {
			t.Fatalf("handler ran at %d despite mask until 500", at)
		}
	}
}

func TestHandlersStealProcessorCycles(t *testing.T) {
	// A compute-only processor on the receiving node must finish later than
	// the same compute with no incoming messages.
	elapsed := func(withTraffic bool) sim.Time {
		m := newM(2)
		m.Nodes[1].CMMU.Register(mtPing, func(e *cmmu.Env) { e.Elapse(200) })
		var done sim.Time
		m.Spawn(1, 0, "victim", func(p *machine.Proc) {
			for i := 0; i < 10; i++ {
				p.Elapse(100)
				p.Flush()
			}
			done = p.Ctx.Now()
		})
		if withTraffic {
			m.Spawn(0, 0, "noisy", func(p *machine.Proc) {
				for i := 0; i < 5; i++ {
					p.SendMessage(cmmu.Descriptor{Type: mtPing, Dst: 1})
					p.Elapse(50)
					p.Flush()
				}
			})
		}
		m.Run()
		return done
	}
	quiet := elapsed(false)
	noisy := elapsed(true)
	if quiet != 1000 {
		t.Fatalf("quiet run = %d, want 1000", quiet)
	}
	if noisy <= quiet {
		t.Fatalf("interrupts stole nothing: noisy=%d quiet=%d", noisy, quiet)
	}
}

func TestRxPortSerializesHandlers(t *testing.T) {
	// Two simultaneous arrivals must not run their handlers concurrently:
	// the second starts after the first's cycles.
	m := newM(3)
	var starts []sim.Time
	m.Nodes[2].CMMU.Register(mtPing, func(e *cmmu.Env) {
		starts = append(starts, e.Now())
		e.Elapse(100)
	})
	m.Spawn(0, 0, "a", func(p *machine.Proc) {
		p.SendMessage(cmmu.Descriptor{Type: mtPing, Dst: 2})
	})
	m.Spawn(1, 0, "b", func(p *machine.Proc) {
		p.SendMessage(cmmu.Descriptor{Type: mtPing, Dst: 2})
	})
	m.Run()
	if len(starts) != 2 {
		t.Fatalf("handled %d, want 2", len(starts))
	}
	gap := starts[1] - starts[0]
	if gap < 100 {
		t.Fatalf("second handler started %d after first, want >= 100", gap)
	}
}

func TestUnknownTypePanics(t *testing.T) {
	m := newM(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unregistered message type")
		}
	}()
	m.Spawn(0, 0, "s", func(p *machine.Proc) {
		p.SendMessage(cmmu.Descriptor{Type: 42, Dst: 1})
	})
	m.Run()
}

func TestDescriptorLimits(t *testing.T) {
	m := newM(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for oversized descriptor")
		}
	}()
	m.Spawn(0, 0, "s", func(p *machine.Proc) {
		ops := make([]uint64, 20) // over the 16-operand descriptor limit
		p.SendMessage(cmmu.Descriptor{Type: mtPing, Dst: 1, Ops: ops})
	})
	m.Run()
}

// A handler's reply is checked as a send is: too many operands, or a
// destination outside the machine, fails with the cmmu's own message.
func TestReplyDescriptorChecked(t *testing.T) {
	for _, tc := range []struct {
		name  string
		reply cmmu.Descriptor
		want  string
	}{
		{"operands", cmmu.Descriptor{Type: mtPong, Dst: 0, Ops: make([]uint64, 17)}, "cmmu: 17 operands exceeds descriptor limit 16"},
		{"destination", cmmu.Descriptor{Type: mtPong, Dst: 9}, "cmmu: bad destination 9"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newM(2)
			m.Nodes[0].CMMU.Register(mtPong, func(*cmmu.Env) {})
			m.Nodes[1].CMMU.Register(mtPing, func(e *cmmu.Env) { e.Reply(tc.reply) })
			m.Spawn(0, 0, "s", func(p *machine.Proc) {
				p.SendMessage(cmmu.Descriptor{Type: mtPing, Dst: 1})
			})
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, tc.want) {
					t.Errorf("panic %q, want %q", msg, tc.want)
				}
			}()
			m.Run()
		})
	}
}

func TestDuplicateHandlerPanics(t *testing.T) {
	m := newM(2)
	m.Nodes[0].CMMU.Register(mtPing, func(*cmmu.Env) {})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for duplicate handler")
		}
	}()
	m.Nodes[0].CMMU.Register(mtPing, func(*cmmu.Env) {})
}

func TestStorebackInvalidatesDestCache(t *testing.T) {
	// A cached copy of the destination region at the receiver must not
	// survive an incoming DMA (destination-coherent transfer).
	m := newM(2)
	dst := m.Store.AllocOn(1, 2)
	m.Nodes[1].CMMU.Register(mtBulk, func(e *cmmu.Env) {
		e.Storeback(dst, e.Data)
	})
	src := m.Store.AllocOn(0, 2)
	m.Store.Write(src, 777)
	m.Spawn(1, 0, "reader", func(p *machine.Proc) {
		_ = p.Read(dst) // cache it Shared
	})
	m.Spawn(0, 1, "sender", func(p *machine.Proc) {
		p.Elapse(300)
		p.SendMessage(cmmu.Descriptor{
			Type: mtBulk, Dst: 1,
			Regions: []cmmu.Region{{Base: src, Words: 1}},
		})
	})
	m.Run()
	if st := m.Nodes[1].Ctrl.LineState(dst); st != mem.Invalid {
		t.Fatalf("dest cache state after DMA = %v, want I", st)
	}
	if got := m.Store.Read(dst); got != 777 {
		t.Fatalf("dst = %d, want 777", got)
	}
}

func TestMaskedAccessor(t *testing.T) {
	m := newM(2)
	if m.Nodes[0].CMMU.Masked() {
		t.Fatal("fresh CMMU masked")
	}
	m.Nodes[0].CMMU.MaskInterrupts()
	if !m.Nodes[0].CMMU.Masked() {
		t.Fatal("mask not visible")
	}
	m.Nodes[0].CMMU.UnmaskInterrupts()
	if m.Nodes[0].CMMU.Masked() {
		t.Fatal("unmask not visible")
	}
}
