package hot

import "fmt"

type ring struct {
	buf []uint64
	fn  func()
}

func sink(v interface{}) {}

func typed(v uint64) {}

// Fire is annotated hot: every allocation shape must be caught.
//alewife:hotpath
func (r *ring) Fire(op uint32, p0 uint64) {
	r.fn = func() { r.buf = append(r.buf, p0) } // want `closure in //alewife:hotpath function Fire`
	_ = fmt.Sprintf("op=%d", op)                // want `fmt\.Sprintf in //alewife:hotpath function Fire`
	sink(p0)                                    // want `scalar argument boxed into interface parameter`
	var v interface{}
	v = p0 // want `scalar boxed into interface`
	_ = v
	var w interface{} = p0 // want `scalar boxed into interface`
	_ = w
	typed(p0) // typed parameter: no boxing, not flagged
	if op > 64 {
		panic(fmt.Sprintf("bad op %d", op)) // panic args are cold: not flagged
	}
}

// Emit is annotated hot but clean: pooled record reuse, typed fields only.
//alewife:hotpath
func (r *ring) Emit(p0 uint64) {
	r.buf = append(r.buf, p0)
}

// Report is not annotated: formatting and closures are fine off the hot
// path.
func (r *ring) Report() string {
	f := func() int { return len(r.buf) }
	return fmt.Sprintf("%d events", f())
}

// Allowed shows a documented exemption.
//alewife:hotpath
func (r *ring) Allowed(op uint32) {
	//alewife:allow sinkalloc one-time cold-start banner, never on the per-event path
	_ = fmt.Sprintf("start op=%d", op)
}
