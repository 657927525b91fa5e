package machine_test

import (
	"testing"

	"alewife/internal/cmmu"
	"alewife/internal/machine"
	"alewife/internal/trace"
)

func TestTraceCapturesMemoryAndMessages(t *testing.T) {
	m := machine.New(machine.DefaultConfig(4))
	buf := m.EnableTrace(1024)
	a := m.Store.AllocOn(2, 2)
	m.Nodes[1].CMMU.Register(5, func(e *cmmu.Env) {})
	m.Spawn(0, 0, "p", func(p *machine.Proc) {
		p.Write(a, 1) // remote miss -> KMiss + KFill
		p.SendMessage(cmmu.Descriptor{Type: 5, Dst: 1})
	})
	m.Run()
	counts := buf.CountByKind()
	if counts[trace.KMiss] == 0 || counts[trace.KFill] == 0 {
		t.Fatalf("memory events missing: %v", counts)
	}
	if counts[trace.KMsgSend] == 0 || counts[trace.KMsgRecv] == 0 {
		t.Fatalf("message events missing: %v", counts)
	}
	// Events are in nondecreasing time order (engine order).
	evs := buf.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatalf("trace out of order at %d: %+v", i, evs[i])
		}
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	m := machine.New(machine.DefaultConfig(2))
	if m.St.Trace != nil {
		t.Fatal("trace enabled without EnableTrace")
	}
	a := m.Store.AllocOn(1, 2)
	m.Spawn(0, 0, "p", func(p *machine.Proc) { p.Write(a, 1) })
	m.Run() // must not panic with nil trace
}
