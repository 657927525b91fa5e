package alewife

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"alewife/internal/bench"
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

// DESIGN.md §4 names every registered experiment, in its index of the
// paper's figures (`-experiment <id>`) or in its extension table, and
// every id in that table is registered, so a retired experiment cannot
// leave a stale row behind.
func TestDesignDocNamesEveryExperiment(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sec := string(doc)
	start, end := strings.Index(sec, "\n## 4."), strings.Index(sec, "\n## 5.")
	if start < 0 || end < start {
		t.Fatal("DESIGN.md has no §4 followed by §5")
	}
	sec = sec[start:end]
	named := map[string]bool{}
	for _, m := range regexp.MustCompile("`-experiment ([\\w-]+)").FindAllStringSubmatch(sec, -1) {
		named[m[1]] = true
	}
	var table []string
	inTable := false
	for _, line := range strings.Split(sec, "\n") {
		switch {
		case strings.HasPrefix(line, "| id |"):
			inTable = true
		case !strings.HasPrefix(line, "|"):
			inTable = false
		case inTable && !strings.HasPrefix(line, "|---"):
			cell := strings.TrimSpace(strings.Split(line, "|")[1])
			for _, id := range strings.Split(cell, " / ") {
				table = append(table, id)
				named[id] = true
			}
		}
	}
	if len(table) == 0 {
		t.Fatal("found no extension table in DESIGN.md §4; is the pattern broken?")
	}
	for _, e := range bench.Experiments() {
		if !named[e.ID] {
			t.Errorf("experiment %s is registered but DESIGN.md §4 does not name it", e.ID)
		}
	}
	for _, id := range table {
		if _, ok := bench.Find(id); !ok {
			t.Errorf("DESIGN.md §4's extension table lists %s, which is not registered", id)
		}
	}
}
