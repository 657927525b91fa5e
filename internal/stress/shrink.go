package stress

import "slices"

// Minimize is the one delta-debugging loop under every shrinker (programs
// here, choice traces in the explorer). It halves xs's length while the
// failure survives, then, for chunk sizes max(n/2,1) down to 1, tries edit
// at every offset. edit(xs, off, size) returns a new candidate with
// xs[off:off+size] changed, or nil when the edit would change nothing; it
// must not modify xs. fails re-executes a candidate and reports whether
// the failure survives, returning the candidate or a shorter canonical
// form of it (a replay may normalize what it ran), which becomes the input
// to beat. budget caps the calls to fails. The result is xs or the last
// input fails accepted, so it is as deterministic as fails.
func Minimize[T any](xs []T, edit func(xs []T, off, size int) []T, fails func([]T) ([]T, bool), budget int) []T {
	best := xs
	try := func(cand []T) bool {
		if cand == nil || budget <= 0 {
			return false
		}
		budget--
		got, ok := fails(cand)
		if ok {
			best = got
		}
		return ok
	}
	for len(best) > 1 {
		if n := len(best) / 2; !try(best[:n:n]) {
			break
		}
	}
	for size := max(len(best)/2, 1); size >= 1 && budget > 0; size /= 2 {
		for off := 0; off < len(best) && budget > 0; {
			if !try(edit(best, off, size)) {
				off += size // on success the same offset holds new input
			}
		}
	}
	return best
}

// Shrink minimizes a failing program with Minimize over the program
// flattened node by node (node 0's stream, then node 1's, ...): it keeps
// prefixes and chunk deletions, down to single ops, that still fail.
// Execution is deterministic, so the result is too. It returns the
// smallest failing program found and its Result; budget caps the number
// of re-executions (<=0 picks a default). The input program must fail under cfg. A
// malformed config is an error, as in Run.
func Shrink(cfg Config, prog [][]Op, budget int) ([][]Op, Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, Result{}, err
	}
	cfg.fill()
	if budget <= 0 {
		budget = 200
	}
	bestRes := execute(cfg, prog)
	if !bestRes.Failed() {
		return prog, bestRes, nil
	}
	fails := func(cand []nodeOp) ([]nodeOp, bool) {
		r := execute(cfg, unflatten(cand, len(prog)))
		if r.Failed() {
			bestRes = r
		}
		return cand, r.Failed()
	}
	best := Minimize(flatten(prog), deleteChunk, fails, budget)
	return unflatten(best, len(prog)), bestRes, nil
}

// nodeOp is one op of a flattened program, tagged with its node.
type nodeOp struct {
	node int
	op   Op
}

// flatten concatenates the per-node streams in node order.
func flatten(prog [][]Op) []nodeOp {
	flat := make([]nodeOp, 0, CountOps(prog))
	for n, ops := range prog {
		for _, op := range ops {
			flat = append(flat, nodeOp{n, op})
		}
	}
	return flat
}

// unflatten rebuilds a program of the given node count, keeping each
// node's ops in order.
func unflatten(flat []nodeOp, nodes int) [][]Op {
	prog := make([][]Op, nodes)
	for _, x := range flat {
		prog[x.node] = append(prog[x.node], x.op)
	}
	return prog
}

// deleteChunk returns a copy of xs without xs[off:off+size].
func deleteChunk(xs []nodeOp, off, size int) []nodeOp {
	return slices.Delete(slices.Clone(xs), off, min(off+size, len(xs)))
}
