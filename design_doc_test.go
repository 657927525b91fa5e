package alewife

import (
	"os"
	"regexp"
	"testing"
)

// DESIGN.md is the map of the code; every internal/… and cmd/… path it
// names must exist, so a moved or renamed package cannot leave it pointing
// at nothing.
func TestDesignDocPathsExist(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(`(?:^|[^\w/.-])((?:internal|cmd)/[\w/-]*\w(?:\.(?:go|txt|json))?)`)
	seen := map[string]bool{}
	for _, m := range re.FindAllStringSubmatch(string(doc), -1) {
		p := m[1]
		if seen[p] {
			continue
		}
		seen[p] = true
		if _, err := os.Stat(p); err != nil {
			t.Errorf("DESIGN.md names %s, which does not exist", p)
		}
	}
	if len(seen) < 20 {
		t.Fatalf("found only %d paths in DESIGN.md; is the pattern broken?", len(seen))
	}
}
