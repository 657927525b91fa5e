package alewife_test

import (
	"fmt"

	"alewife"
	"alewife/internal/machine"
)

// Fork/join over the hybrid runtime: the basic programming model.
func ExampleNewRuntime() {
	m := alewife.NewMachine(8)
	rt := alewife.NewRuntime(m, alewife.Hybrid)
	sum, _ := rt.Run(func(tc *alewife.TC) uint64 {
		a := tc.Fork(func(c *alewife.TC) uint64 { c.Elapse(100); return 40 })
		b := tc.Fork(func(c *alewife.TC) uint64 { c.Elapse(100); return 2 })
		return a.Touch(tc) + b.Touch(tc)
	})
	fmt.Println("sum:", sum)
	// Output: sum: 42
}

// Raw machine access: coherent shared memory without any runtime.
func ExampleNewMachine() {
	m := alewife.NewMachine(4)
	x := m.Store.AllocOn(2, 2) // a word homed on node 2
	m.Spawn(0, 0, "writer", func(p *alewife.Proc) {
		p.Write(x, 7)
	})
	m.Spawn(1, 0, "reader", func(p *alewife.Proc) {
		p.Elapse(1000) // arrive after the write
		fmt.Println("read:", p.Read(x))
	})
	m.Run()
	// Output: read: 7
}

// User-level messages through the CMMU interface.
func ExampleDescriptor() {
	m := alewife.NewMachine(2)
	const hello = 99
	m.Nodes[1].CMMU.Register(hello, func(e *alewife.Env) {
		fmt.Println("node 1 received ops:", e.Ops)
	})
	m.Spawn(0, 0, "sender", func(p *alewife.Proc) {
		p.SendMessage(alewife.Descriptor{Type: hello, Dst: 1, Ops: []uint64{3, 4}})
	})
	m.Run()
	// Output: node 1 received ops: [3 4]
}

// The combining-tree barrier: no node leaves before every node has entered.
func ExampleBarrier() {
	rt := alewife.NewRuntime(alewife.NewMachine(4), alewife.Hybrid)
	entered := 0
	seen := make([]int, 4)
	rt.SPMD(func(p *machine.Proc) {
		entered++
		rt.Barrier().Sync(p)
		seen[p.ID()] = entered
	})
	fmt.Println("entered when each node left:", seen[0], seen[1], seen[2], seen[3])
	// Output: entered when each node left: 4 4 4 4
}

// Remote thread invocation: place work on another processor's queue.
func ExampleRT_Invoke() {
	rt := alewife.NewRuntime(alewife.NewMachine(4), alewife.Hybrid)
	v, _ := rt.Run(func(tc *alewife.TC) uint64 {
		f := rt.NewFuture(tc.ID())
		task := rt.NewInvokeTask(func(c *alewife.TC) {
			f.Resolve(c, uint64(c.ID()))
		})
		rt.Invoke(tc.P, 3, task)
		return f.Touch(tc)
	})
	fmt.Println("ran on node:", v)
	// Output: ran on node: 3
}
