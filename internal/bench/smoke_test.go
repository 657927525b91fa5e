package bench

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// Smoke tests: every registered experiment must run to completion on a
// small machine and produce plausible output. Individual shape assertions
// live next to the apps; this guards the drivers themselves.

func TestEveryExperimentRunsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke sweep is not short")
	}
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var sb strings.Builder
			e.Run(Config{Nodes: 8, Quick: true}, &sb)
			if len(sb.String()) < 30 {
				t.Fatalf("experiment %s produced almost no output:\n%s", e.ID, sb.String())
			}
		})
	}
}

// TestRunAllQuick pins every figure of a quick 16-node run of all the
// experiments, so a change that moves a simulated cycle fails tier-1. 16
// nodes is enough to overflow LimitLESS pointers. A change meant to move
// cycles regenerates the golden (make golden) in the same commit.
func TestRunAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("RunAll is not short")
	}
	want, err := os.ReadFile("testdata/all_quick_16.txt")
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	RunAll(Config{Nodes: 16, Quick: true}, &b)
	got := b.Bytes()
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("RunAll differs from testdata/all_quick_16.txt at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("RunAll has %d lines, testdata/all_quick_16.txt %d", len(gl), len(wl))
}

func TestDefaultConfig(t *testing.T) {
	if DefaultConfig().Nodes != 64 {
		t.Fatal("default config is not the paper's 64 processors")
	}
}
