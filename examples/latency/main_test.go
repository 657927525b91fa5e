package main

import (
	"strings"
	"testing"

	"alewife/examples/internal/cmdtest"
)

func TestLatencySmoke(t *testing.T) {
	out, code := cmdtest.Run(t, "alewife/examples/latency")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	for _, want := range []string{
		"summing a 4096-byte array on the neighbouring node, three ways",
		"blocking loads",
		"prefetching",
		"software DSM",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Every variant checksums its sum against the closed form.
	if n := strings.Count(out, "checksum ok"); n != 3 {
		t.Errorf("%d of 3 variants checksummed ok:\n%s", n, out)
	}
}
