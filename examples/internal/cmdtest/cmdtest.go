// Package cmdtest builds example binaries and runs them for end-to-end
// smoke tests: each example's test exercises the real compiled program —
// flag parsing, wiring, and printed output — rather than the library
// calls behind it.
package cmdtest

import (
	"bytes"
	"os"
	"os/exec"
	"path"
	"strings"
	"testing"
)

// Build compiles pkg (an import path like "alewife/examples/barrier") and
// returns the path of the resulting binary. The Go build cache makes
// repeat builds within a test run cheap.
//
// The build runs in a subprocess, whose reads Go's test cache does not
// see, so Build first opens the source directory of pkg and of every
// package of this module it imports from the test process: the name,
// size and modification time of each file in them become inputs of the
// cached test result, and a renamed, deleted or edited package makes the
// next go test run the test again instead of reporting it cached.
func Build(t *testing.T, pkg string) string {
	t.Helper()
	for _, dir := range moduleDirs(t, pkg) {
		f, err := os.Open(dir)
		if err != nil {
			t.Fatalf("cmdtest: %v", err)
		}
		f.Close()
	}
	bin := path.Join(t.TempDir(), path.Base(pkg))
	out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput()
	if err != nil {
		t.Fatalf("cmdtest: go build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

// moduleDirs lists the source directories of pkg and of the packages of
// this module it depends on.
func moduleDirs(t *testing.T, pkg string) []string {
	t.Helper()
	cmd := exec.Command("go", "list", "-deps", "-f", "{{with .Module}}{{if .Main}}{{$.Dir}}{{end}}{{end}}", pkg)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("cmdtest: go list %s: %v\n%s", pkg, err, stderr.Bytes())
	}
	var dirs []string
	for _, dir := range strings.Split(string(out), "\n") {
		if dir != "" {
			dirs = append(dirs, dir)
		}
	}
	return dirs
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
