package stats

import (
	"os/exec"
	"strings"
	"testing"
)

// The handle's per-event methods run on every simulated hit, miss, packet
// and pipeline slot, so they must stay inlinable: then a consumer that is
// off costs a nil test at the call site, not a call. Event need not
// inline; it runs once per message, writeback or violation.
func TestHooksInline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the packages with -gcflags=-m=2")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	out, err := exec.Command(goTool, "build", "-gcflags=-m=2", ".", "../trace").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m=2: %v\n%s", err, out)
	}
	for _, fn := range []string{
		"(*Machine).Inc", "(*Machine).Add", "(*Machine).Emit", "(*Machine).Charge",
		"(*Buffer).Emit",
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
