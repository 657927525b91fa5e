package metrics

import (
	"strings"
	"testing"
)

func TestNilProfilerIsInert(t *testing.T) {
	var p *Profiler
	p.Add(0, Compute, 100) // must not panic
}

func TestAddAndTotals(t *testing.T) {
	p := New(2)
	p.Add(0, Compute, 100)
	p.Add(0, Compute, 50)
	p.Add(1, MissStall, 30)
	p.Add(0, NetQueue, 7)
	p.Add(0, NoBucket, 99) // region sentinel: discarded
	p.Add(1, Compute, 0)   // zero: discarded

	if got := p.Get(0, Compute); got != 150 {
		t.Fatalf("Get(0, Compute) = %d, want 150", got)
	}
	if got := p.Total(Compute); got != 150 {
		t.Fatalf("Total(Compute) = %d, want 150", got)
	}
	if got := p.Total(MissStall); got != 30 {
		t.Fatalf("Total(MissStall) = %d, want 30", got)
	}
	if got := p.Total(NetQueue); got != 7 {
		t.Fatalf("Total(NetQueue) = %d, want 7", got)
	}
}

func TestFinalizeFillsUntrackedAndInvariantHolds(t *testing.T) {
	p := New(2)
	p.Add(0, Compute, 600)
	p.Add(0, MissStall, 150)
	p.Add(1, SyncWait, 10)
	p.Add(1, DirPipeline, 5000) // overlay: must not disturb the partition

	if err := p.Finalize(1000); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	if got := p.Get(0, Untracked); got != 250 {
		t.Fatalf("node 0 untracked = %d, want 250", got)
	}
	if got := p.Get(1, Untracked); got != 990 {
		t.Fatalf("node 1 untracked = %d, want 990", got)
	}
	if err := p.CheckInvariant(); err != nil {
		t.Fatalf("CheckInvariant: %v", err)
	}
	if p.Elapsed() != 1000 {
		t.Fatalf("Elapsed = %d, want 1000", p.Elapsed())
	}
}

func TestFinalizeDetectsOverAttribution(t *testing.T) {
	p := New(1)
	p.Add(0, Compute, 700)
	p.Add(0, MissStall, 400)
	if err := p.Finalize(1000); err == nil {
		t.Fatal("Finalize accepted 1100 attributed cycles in a 1000-cycle run")
	}
}

func TestFinalizeTwiceFails(t *testing.T) {
	p := New(1)
	if err := p.Finalize(10); err != nil {
		t.Fatalf("first Finalize: %v", err)
	}
	if err := p.Finalize(10); err == nil {
		t.Fatal("second Finalize did not fail")
	}
}

func TestCheckInvariantBeforeFinalizeFails(t *testing.T) {
	p := New(1)
	if err := p.CheckInvariant(); err == nil {
		t.Fatal("CheckInvariant before Finalize did not fail")
	}
}

func TestShares(t *testing.T) {
	p := New(2)
	p.Add(0, Compute, 500)
	p.Add(1, Compute, 500)
	p.Add(0, Handler, 250)
	if err := p.Finalize(1000); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	if got := p.Share(Compute); got != 0.5 {
		t.Fatalf("Share(Compute) = %v, want 0.5", got)
	}
	if got := p.Share(Handler); got != 0.125 {
		t.Fatalf("Share(Handler) = %v, want 0.125", got)
	}
	sh := p.Shares()
	if sh["compute"] != 0.5 {
		t.Fatalf("Shares()[compute] = %v, want 0.5", sh["compute"])
	}
	if _, ok := sh["net-queue"]; ok {
		t.Fatal("zero bucket present in Shares()")
	}
	// Untracked completes the partition: 1 - 0.5 - 0.125.
	if got := sh["untracked"]; got != 0.375 {
		t.Fatalf("Shares()[untracked] = %v, want 0.375", got)
	}
}

func TestStringTagsOverlay(t *testing.T) {
	p := New(1)
	p.Add(0, Compute, 80)
	p.Add(0, NetTransit, 40)
	if err := p.Finalize(100); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	s := p.String()
	for _, want := range []string{"compute", "untracked", "net-transit", "(overlay)"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestBucketNames(t *testing.T) {
	if Compute.String() != "compute" || MsgQueue.String() != "msg-queue" {
		t.Fatal("bucket names wrong")
	}
	if !DirPipeline.Overlay() || Compute.Overlay() || Untracked.Overlay() {
		t.Fatal("Overlay() classification wrong")
	}
	if got := Bucket(99).String(); got != "bucket(99)" {
		t.Fatalf("out-of-range name = %q", got)
	}
}
