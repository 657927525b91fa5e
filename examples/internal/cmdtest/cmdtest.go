// Package cmdtest builds example binaries and runs them for end-to-end
// smoke tests: each example's test exercises the real compiled program —
// flag parsing, wiring, and printed output — rather than the library
// calls behind it.
package cmdtest

import (
	"bytes"
	"os/exec"
	"path"
	"testing"
)

// Build compiles pkg (an import path like "alewife/examples/barrier") and
// returns the path of the resulting binary. The Go build cache makes
// repeat builds within a test run cheap.
func Build(t *testing.T, pkg string) string {
	t.Helper()
	bin := path.Join(t.TempDir(), path.Base(pkg))
	out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput()
	if err != nil {
		t.Fatalf("cmdtest: go build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

// Run builds pkg, executes it with args, and returns its combined
// stdout+stderr and exit code. Failing to start the binary at all fails
// the test; a nonzero exit is returned to the caller to assert on.
func Run(t *testing.T, pkg string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(Build(t, pkg), args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	err := cmd.Run()
	if err == nil {
		return out.String(), 0
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("cmdtest: run %s: %v", pkg, err)
	}
	return out.String(), ee.ExitCode()
}
