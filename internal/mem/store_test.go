package mem

import (
	"math/rand"
	"os/exec"
	"strings"
	"testing"
)

// wp is the module size the store tests use, in words. NewStore accepts
// only powers of two: Home and the accessors shift and mask.
const wp = 1 << 10

// The store reads back exactly what a flat array of every node's words
// would, under random reads and writes over every module, with each
// module's first and last word among the targets.
func TestStoreMatchesFlatReference(t *testing.T) {
	const nodes = 5
	s := NewStore(nodes, wp)
	ref := make([]uint64, nodes*wp)
	rng := rand.New(rand.NewSource(wp))
	pick := func() Addr {
		node := uint64(rng.Intn(nodes))
		switch rng.Intn(4) {
		case 0:
			return Addr(node * wp)
		case 1:
			return Addr(node*wp + wp - 1)
		}
		return Addr(node*wp + uint64(rng.Int63n(int64(wp))))
	}
	for i := 0; i < 20000; i++ {
		a := pick()
		if rng.Intn(2) == 0 {
			v := rng.Uint64()
			s.Write(a, v)
			ref[a] = v
		} else if got := s.Read(a); got != ref[a] {
			t.Fatalf("op %d: Read(%#x) = %#x, want %#x", i, uint64(a), got, ref[a])
		}
	}
	for a := range ref {
		if got := s.Read(Addr(a)); got != ref[a] {
			t.Fatalf("sweep: Read(%#x) = %#x, want %#x", a, got, ref[a])
		}
	}
}

// A word never written reads 0, and reading it allocates no page: in an
// untouched module, beside a module's only written word, and at the
// module's last word.
func TestStoreUnwrittenReadsZero(t *testing.T) {
	s := NewStore(3, wp)
	base := Addr(wp) // node 1
	s.Write(base+10, 7)
	pages := storePages(s)
	for _, a := range []Addr{0, Addr(wp - 1), base, base + 9, base + 11, base + 12, base + Addr(wp) - 1, 2 * Addr(wp), 3*Addr(wp) - 1} {
		if got := s.Read(a); got != 0 {
			t.Errorf("unwritten Read(%#x) = %#x, want 0", uint64(a), got)
		}
	}
	if got := s.ReadF(base + 11); got != 0 {
		t.Errorf("unwritten ReadF = %v, want 0", got)
	}
	if got := storePages(s); got != pages {
		t.Errorf("reads took the store from %d to %d pages", pages, got)
	}
}

// storePages counts the pages the store has allocated.
func storePages(s *Store) int {
	n := 0
	for _, d := range s.top {
		if d == nil {
			continue
		}
		for _, p := range d {
			if p != nil {
				n++
			}
		}
	}
	return n
}

// A write that allocates a page or a directory keeps every word written
// before it, whether it lands on the next page or jumps straight to the
// module's last word.
func TestStoreGrowthKeepsEarlierWords(t *testing.T) {
	s := NewStore(2, wp)
	base := Addr(wp) // node 1
	var written []uint64
	for off := uint64(0); off < wp; off = 2*off + 1 {
		written = append(written, off)
	}
	written = append(written, wp-1)
	for i, off := range written {
		s.WriteF(base+Addr(off), float64(off)+0.5)
		for _, prev := range written[:i+1] {
			if got := s.ReadF(base + Addr(prev)); got != float64(prev)+0.5 {
				t.Fatalf("after writing offset %d, offset %d reads %v", off, prev, got)
			}
		}
	}
}

// Every accessor panics on an address past the last module.
func TestStoreAddressPastLastModulePanics(t *testing.T) {
	s := NewStore(4, wp)
	for _, a := range []Addr{Addr(4 * wp), Addr(4*wp + wp/2), Addr(1 << 40)} {
		for name, f := range map[string]func(){
			"Read":   func() { s.Read(a) },
			"Write":  func() { s.Write(a, 1) },
			"ReadF":  func() { s.ReadF(a) },
			"WriteF": func() { s.WriteF(a, 1) },
			"Home":   func() { s.Home(a) },
		} {
			if !panics(f) {
				t.Errorf("%s(%#x) past the last module did not panic", name, uint64(a))
			}
		}
	}
}

// The accessors every simulated load, store and protocol request runs must
// stay inlinable: the store's Read and Write, the cache probes the hit and
// miss paths call, and the directory's lookup.
func TestStoreAccessorsInline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the package with -gcflags=-m=2")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	out, err := exec.Command(goTool, "build", "-gcflags=-m=2", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m=2: %v\n%s", err, out)
	}
	for _, fn := range []string{
		"(*Store).Read",
		"(*Store).Write",
		"(*Cache).State",
		"(*Cache).Touch",
		"(*Cache).Prefetched",
		"(*Cache).SetPrefetched",
		"(*dirTab).get",
	} {
		if !strings.Contains(string(out), "can inline "+fn+" with cost") {
			for _, l := range strings.Split(string(out), "\n") {
				if strings.Contains(l, "inline "+fn+":") {
					t.Error(l)
				}
			}
			t.Errorf("%s is not inlinable", fn)
		}
	}
}

func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}
