package explore

import (
	"bytes"
	"slices"
	"testing"

	"alewife/internal/stress"
)

// FuzzDecodeTrace hammers the trace decoder with arbitrary bytes: it must
// never panic, and anything it accepts must round-trip — Encode of the
// decoded file re-decodes to an identical encoding. The committed corpus
// under testdata/fuzz/FuzzDecodeTrace seeds the interesting shapes; `go
// test -fuzz FuzzDecodeTrace ./internal/explore` explores from there.
func FuzzDecodeTrace(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte(traceMagic + "\n"))
	f.Add((&File{Seed: 1, Nodes: 3, Ops: 8, Lines: 2}).Encode())
	f.Add((&File{
		Seed: 0x2a, Nodes: 3, Ops: 10, Lines: 2,
		Mix: []int{2, 2, 0, 0, 10, 4, 4, 2, 2}, Mutation: "drop-ack", FaultPackets: 6,
		Steps: []Step{{Pick: 1, N: 3}, {Fault: true, Pick: 2, N: 3}},
	}).Encode())
	f.Add([]byte(traceMagic + "\nseed 0x1\nsteps 1\ns 9/2\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tf, err := Decode(data)
		if err != nil {
			return
		}
		enc := tf.Encode()
		tf2, err := Decode(enc)
		if err != nil {
			t.Fatalf("accepted input re-encodes to a rejected trace: %v\n%s", err, enc)
		}
		if !bytes.Equal(tf2.Encode(), enc) {
			t.Fatalf("encode/decode round trip not stable:\n--- 1 ---\n%s--- 2 ---\n%s", enc, tf2.Encode())
		}
	})
}

// FuzzShrinkSteps drives the shared reduction loop (stress.Minimize, with
// ShrinkTrace's default-pick edit) with a synthetic oracle derived from the
// fuzz input, checking the shrinker's contract without a simulator in the
// loop: the result still fails the oracle, never grows, respects the
// re-execution budget, and is deterministic.
func FuzzShrinkSteps(f *testing.F) {
	f.Add([]byte{0x03, 0x81, 0x00, 0x47, 0x81}, 20)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, 50)
	f.Add([]byte{0x00}, 5)
	f.Add([]byte{}, 10)
	f.Fuzz(func(t *testing.T, data []byte, budget int) {
		if len(data) > 64 {
			data = data[:64]
		}
		if budget < 0 || budget > 500 {
			budget = 100
		}
		// Each input byte becomes one step; bit 7 marks the step as one the
		// synthetic failure needs. The oracle fails a candidate iff every
		// required step still has a non-default pick (missing trailing
		// steps count as defaults, mirroring replay).
		steps := make([]Step, len(data))
		required := map[int]bool{}
		for i, b := range data {
			n := 2 + int(b>>4)%4
			pick := int(b>>1) % n
			if b&0x80 != 0 && pick == 0 {
				pick = 1
			}
			steps[i] = Step{Fault: b&1 != 0, Pick: pick, N: n}
			if b&0x80 != 0 {
				required[i] = true
			}
		}
		oracle := func(cand []Step) bool {
			for i := range required {
				if i >= len(cand) || cand[i].Pick == 0 {
					return false
				}
			}
			return true
		}
		if !oracle(steps) {
			t.Fatal("synthetic construction broken: original must fail")
		}
		tries := 0
		mkTry := func() func([]Step) ([]Step, bool) {
			return func(cand []Step) ([]Step, bool) {
				tries++
				if !oracle(cand) {
					return nil, false
				}
				return trimDefaults(slices.Clone(cand)), true
			}
		}
		got := stress.Minimize(slices.Clone(steps), defaultChunk, mkTry(), budget)
		if !oracle(got) {
			t.Fatalf("shrunk trace no longer fails the oracle: %v", got)
		}
		if len(got) > len(steps) {
			t.Fatalf("shrink grew the trace: %d -> %d", len(steps), len(got))
		}
		if tries > budget {
			t.Fatalf("budget exceeded: %d tries, budget %d", tries, budget)
		}
		tries = 0
		if again := stress.Minimize(slices.Clone(steps), defaultChunk, mkTry(), budget); len(again) != len(got) {
			t.Fatalf("shrink not deterministic: %d vs %d steps", len(got), len(again))
		}
	})
}
