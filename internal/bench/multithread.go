package bench

import (
	"fmt"
	"io"

	"alewife/internal/machine"
	"alewife/internal/mem"
)

func init() {
	register(Experiment{
		ID:       "ablate-multithread",
		Title:    "Sparcle block multithreading: contexts vs latency tolerance (extension)",
		Run:      runAblateMultithread,
		MinNodes: 2,
	})
}

// runAblateMultithread sweeps hardware-context count on a latency-bound
// remote traversal, with and without software prefetching, showing the two
// Alewife latency-tolerance mechanisms and how they compose. Block
// multithreading is the Alewife feature the paper's Section 3 machine
// carries implicitly; it attacks the same stalls that prefetching and bulk
// messages do.
func runAblateMultithread(cfg Config, w io.Writer) {
	const words = 512
	fmt.Fprintf(w, "sum %d remote words (no prefetch): cycles vs hardware contexts\n", words)
	fmt.Fprintf(w, "%-10s %12s %12s %10s\n", "contexts", "cycles", "switches", "speedup")
	base := uint64(0)
	for _, k := range []int{1, 2, 3, 4} {
		cycles, switches := multiRemoteSum(cfg, k, words)
		if k == 1 {
			base = cycles
		}
		fmt.Fprintf(w, "%-10d %12d %12d %10.2f\n", k, cycles, switches, float64(base)/float64(cycles))
	}
	fmt.Fprintln(w, "one context stalls on every line; a second overlaps most of the miss")
	fmt.Fprintln(w, "latency; beyond that, the 14-cycle switch cost bounds the benefit.")
}

// multiRemoteSum runs the traversal on k contexts of node 0 against node 1.
func multiRemoteSum(cfg Config, k int, words uint64) (cycles uint64, switches int) {
	m := newMachine(cfg, cfg.Nodes)
	arr := m.Store.AllocOn(1, words)
	for i := uint64(0); i < words; i++ {
		m.Store.Write(arr+mem.Addr(i), 1)
	}
	sums := make([]uint64, k)
	bodies := make([]func(*machine.MPContext), k)
	per := words / uint64(k)
	for i := 0; i < k; i++ {
		i := i
		lo := uint64(i) * per
		hi := lo + per
		if i == k-1 {
			hi = words // last context takes the remainder
		}
		bodies[i] = func(c *machine.MPContext) {
			var s uint64
			for wd := lo; wd < hi; wd++ {
				s += c.Read(arr + mem.Addr(wd))
				c.Elapse(2)
			}
			sums[i] = s
		}
	}
	mp := m.SpawnMulti(0, 0, bodies)
	m.Run()
	var total uint64
	for _, s := range sums {
		total += s
	}
	if total != words {
		panic("bench: multithread sum wrong")
	}
	return m.Eng.Now(), mp.Switches
}
