// Latency: one remote traversal, four ways. The same 4 KB remote array is
// summed by (1) a plain blocking processor, (2) a prefetching loop,
// (3) a Sparcle-style block-multithreaded processor with two hardware
// contexts, and (4) a processor whose shared address space is synthesized
// in software over messages (the paper's Figure 1 strawman). Together they
// bracket the design space the paper argues over: hardware coherence is
// the floor everything else builds on, and latency tolerance comes from
// prefetching or multithreading — not from doing coherence in software.
package main

import (
	"fmt"

	"alewife"
	"alewife/internal/machine"
	"alewife/internal/mem"
	"alewife/internal/swdsm"
)

const words = 512

func setup() (*alewife.Machine, alewife.Addr) {
	m := alewife.NewMachine(2)
	arr := m.Store.AllocOn(1, words)
	for i := uint64(0); i < words; i++ {
		m.Store.Write(arr+alewife.Addr(i), i)
	}
	return m, arr
}

func expect() uint64 { return words * (words - 1) / 2 }

func main() {
	fmt.Printf("summing a %d-byte array on the neighbouring node, four ways\n\n", words*8)

	// 1. Plain blocking loads.
	m, arr := setup()
	var sum, cycles uint64
	m.Spawn(0, 0, "plain", func(p *alewife.Proc) {
		p.Flush()
		s := p.Ctx.Now()
		for i := uint64(0); i < words; i++ {
			sum += p.Read(arr + alewife.Addr(i))
			p.Elapse(2)
		}
		p.Flush()
		cycles = p.Ctx.Now() - s
	})
	m.Run()
	report("blocking loads", sum, cycles)

	// 2. Prefetching (the accum trick, Figure 8).
	m, arr = setup()
	sum = 0
	m.Spawn(0, 0, "prefetch", func(p *alewife.Proc) {
		p.Flush()
		s := p.Ctx.Now()
		for i := uint64(0); i < words; i++ {
			if i%mem.LineWords == 0 && i+4*mem.LineWords < words {
				p.Prefetch(arr+alewife.Addr(i+4*mem.LineWords), false)
			}
			sum += p.Read(arr + alewife.Addr(i))
			p.Elapse(2)
		}
		p.Flush()
		cycles = p.Ctx.Now() - s
	})
	m.Run()
	report("prefetching", sum, cycles)

	// 3. Two Sparcle hardware contexts.
	m, arr = setup()
	sums := make([]uint64, 2)
	bodies := make([]func(*machine.MPContext), 2)
	for i := range bodies {
		i := i
		bodies[i] = func(c *machine.MPContext) {
			lo := uint64(i) * words / 2
			hi := lo + words/2
			var s uint64
			for w := lo; w < hi; w++ {
				s += c.Read(arr + alewife.Addr(w))
				c.Elapse(2)
			}
			sums[i] = s
		}
	}
	m.SpawnMulti(0, 0, bodies)
	m.Run()
	report("2 hardware contexts", sums[0]+sums[1], m.Eng.Now())

	// 4. Software-synthesized shared address space (Figure 1).
	m, arr = setup()
	d := swdsm.New(m, false)
	sum = 0
	m.Spawn(0, 0, "swdsm", func(p *alewife.Proc) {
		p.Flush()
		s := p.Ctx.Now()
		for i := uint64(0); i < words; i++ {
			sum += d.Read(p, arr+alewife.Addr(i))
			p.Elapse(2)
		}
		p.Flush()
		cycles = p.Ctx.Now() - s
	})
	m.Run()
	report("software DSM", sum, cycles)
}

func report(name string, sum, cycles uint64) {
	status := "ok"
	if sum != expect() {
		status = fmt.Sprintf("WRONG (got %d)", sum)
	}
	fmt.Printf("%-22s %8d cycles  (%.1f us)   checksum %s\n",
		name, cycles, float64(cycles)/33, status)
}
