package trace

import (
	"regexp"
	"strings"
	"testing"
	"testing/quick"
)

func TestNilBufferIsNoop(t *testing.T) {
	var b *Buffer
	b.Emit(1, 0, KMiss, 2) // must not panic
}

func TestEmitAndEvents(t *testing.T) {
	b := New(8)
	b.Emit(10, 1, KMiss, 100)
	b.Emit(20, 2, KFill, 100)
	evs := b.Events()
	if len(evs) != 2 {
		t.Fatalf("len = %d", len(evs))
	}
	if evs[0].At != 10 || evs[0].Kind != KMiss || evs[1].Node != 2 {
		t.Fatalf("events wrong: %+v", evs)
	}
}

func TestRingDropsOldest(t *testing.T) {
	b := New(3)
	for i := uint64(0); i < 5; i++ {
		b.Emit(i, 0, KMiss, i)
	}
	if b.Len() != 3 || b.Dropped() != 2 {
		t.Fatalf("len=%d dropped=%d", b.Len(), b.Dropped())
	}
	evs := b.Events()
	if evs[0].At != 2 || evs[2].At != 4 {
		t.Fatalf("retained window wrong: %+v", evs)
	}
}

func TestCountByKindAndNodeActivity(t *testing.T) {
	b := New(16)
	b.Emit(1, 0, KMiss, 0)
	b.Emit(2, 0, KMiss, 0)
	b.Emit(3, 1, KFill, 0)
	if b.CountByKind()[KMiss] != 2 || b.CountByKind()[KFill] != 1 {
		t.Fatal("counts wrong")
	}
	if b.NodeActivity()[0] != 2 || b.NodeActivity()[1] != 1 {
		t.Fatal("node activity wrong")
	}
}

func TestFormatAndSummary(t *testing.T) {
	b := New(4)
	b.Emit(5, 3, KMsgSend, 7)
	out := b.Format(10)
	if !strings.Contains(out, "msg-send") || !strings.Contains(out, "n3") {
		t.Fatalf("format output: %q", out)
	}
	if !strings.Contains(b.Summary(), "msg-send") {
		t.Fatalf("summary output: %q", b.Summary())
	}
	for i := uint64(0); i < 10; i++ {
		b.Emit(i, 0, KMiss, 0)
	}
	if !strings.Contains(b.Format(2), "dropped") {
		t.Fatal("dropped note missing")
	}
}

func TestReset(t *testing.T) {
	b := New(4)
	b.Emit(1, 0, KMiss, 0)
	b.Reset()
	if b.Len() != 0 || b.Dropped() != 0 || len(b.Events()) != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestKindStrings(t *testing.T) {
	for k := Kind(0); k < kMax; k++ {
		if strings.HasPrefix(k.String(), "kind(") {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if !strings.HasPrefix(Kind(200).String(), "kind(") {
		t.Fatal("unknown kind not handled")
	}
}

// Kind names label golden-visible rows: each must be unique and kebab-case.
func TestKindNamesUniqueKebab(t *testing.T) {
	kebab := regexp.MustCompile(`^[a-z][a-z0-9-]*$`)
	seen := make(map[string]bool)
	for _, name := range kindNames {
		if !kebab.MatchString(name) {
			t.Errorf("trace kind name %q is not kebab-case", name)
		}
		if seen[name] {
			t.Errorf("trace kind name %q appears twice in kindNames", name)
		}
		seen[name] = true
	}
}

func TestBadCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0)
}

// Property: after any emission sequence, Len <= cap, Len + Dropped equals
// total emissions, and Events returns timestamps in emission order.
func TestPropertyRingInvariants(t *testing.T) {
	f := func(stamps []uint16) bool {
		b := New(16)
		for i, s := range stamps {
			b.Emit(uint64(i), int(s%4), Kind(s%uint16(kMax)), uint64(s))
		}
		if b.Len() > 16 {
			return false
		}
		if b.Len()+b.Dropped() != len(stamps) {
			return false
		}
		evs := b.Events()
		for i := 1; i < len(evs); i++ {
			if evs[i].At != evs[i-1].At+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
