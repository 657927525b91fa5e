package cmdtest

import (
	"os"
	"strings"
	"testing"
)

func TestBuildProducesExecutable(t *testing.T) {
	bin := Build(t, "alewife/examples/quickstart")
	info, err := os.Stat(bin)
	if err != nil {
		t.Fatal(err)
	}
	if info.Mode()&0o111 == 0 {
		t.Errorf("%s is not executable (mode %v)", bin, info.Mode())
	}
}

func TestRunReportsNonZeroExit(t *testing.T) {
	out, code := Run(t, "alewife/examples/barrier", "-no-such-flag")
	if code == 0 {
		t.Fatalf("unknown flag exited 0:\n%s", out)
	}
	if !strings.Contains(out, "flag provided but not defined") {
		t.Errorf("flag error not surfaced:\n%s", out)
	}
}
