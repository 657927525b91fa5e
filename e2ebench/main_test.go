package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"alewife/internal/mem"
)

// spec is the part of BENCHMARK.json the program must agree with.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(blob, &s); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return s
}

// lastResult parses the JSON object on the last line of the output.
func lastResult(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return r
}

// checkMetrics asserts that the result carries exactly want, each with its
// unit, and that each is also printed by name on its own line.
func checkMetrics(t *testing.T, label, out string, r result, want []specMetric) {
	t.Helper()
	if len(r.Metrics) != len(want) {
		t.Errorf("%s: %d metrics in the result, BENCHMARK.json lists %d", label, len(r.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := r.Metrics[m.Name]
		if !ok {
			t.Errorf("%s: metric %s missing from the result", label, m.Name)
			continue
		}
		if got.Unit != m.Unit {
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", label, m.Name, got.Unit, m.Unit)
		}
		line := regexp.MustCompile(`(?m)^metric ` + regexp.QuoteMeta(m.Name) + ` +\S+ ` + regexp.QuoteMeta(m.Unit) + `$`)
		if !line.MatchString(out) {
			t.Errorf("%s: no line prints metric %s with unit %s", label, m.Name, m.Unit)
		}
	}
}

// TestSmokeEveryWorkload runs every workload BENCHMARK.json declares at
// tiny scale, untraced and traced, and checks that the program prints
// exactly the metrics the file lists, with their units, and reproduces the
// baseline's simulated results.
func TestSmokeEveryWorkload(t *testing.T) {
	s := loadSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames)
	}
	for _, w := range names {
		for _, trace := range []bool{false, true} {
			label := fmt.Sprintf("%s trace=%v", w, trace)
			cfg := tinyConfig(t, w, defaultSeed)
			cfg.trace = trace
			code, out := benchOutput(cfg)
			if code != 0 {
				t.Errorf("%s: exit %d\n%s", label, code, out)
				continue
			}
			r := lastResult(t, out)
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s: correct=%v failed=%d attempted=%d\n%s", label, r.Correct, r.Failed, r.Attempted, out)
			}
			if !strings.Contains(out, "(matches baseline)") {
				t.Errorf("%s: simulated results differ from baseline.json\n%s", label, out)
			}
			if !regexp.MustCompile(`(?m)^host nproc=\d+ gomaxprocs=\d+ `).MatchString(out) {
				t.Errorf("%s: host shape not printed", label)
			}
			if !trace {
				checkMetrics(t, label, out, r, s.EndToEnd)
				continue
			}
			checkMetrics(t, label, out, r, s.PerLayer)
			checkShares(t, label, r)
			checkSpans(t, label, cfg.spans)
		}
	}
}

func checkShares(t *testing.T, label string, r result) {
	t.Helper()
	var sum float64
	for _, l := range layers {
		sum += r.Metrics["host."+l+".share"].Value
	}
	// A tiny run can finish between two profiling ticks.
	if sum != 0 && (sum < 0.999 || sum > 1.001) {
		t.Errorf("%s: layer shares sum to %v", label, sum)
	}
}

func checkSpans(t *testing.T, label, path string) {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	var f struct{ Spans []span }
	if err := json.Unmarshal(blob, &f); err != nil {
		t.Fatalf("%s: spans.json: %v", label, err)
	}
	if len(f.Spans) == 0 || len(f.Spans)%4 != 0 {
		t.Fatalf("%s: %d spans, want 4 per run", label, len(f.Spans))
	}
	for i, sp := range f.Spans {
		if sp.EndNS < sp.StartNS || (i%4 != 0 && sp.Parent != f.Spans[i-i%4].ID) {
			t.Errorf("%s: malformed span %+v", label, sp)
		}
	}
}

// TestPaperResultsIgnoreTheSeed checks that the seed only reorders the
// paper runs: the simulated results match the baseline at any seed.
func TestPaperResultsIgnoreTheSeed(t *testing.T) {
	code, out := benchOutput(tinyConfig(t, "paper-mp", 7))
	if code != 0 || !strings.Contains(out, "(matches baseline)") {
		t.Errorf("exit %d, want 0 and a matching digest\n%s", code, out)
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "paper-sm", "--trace", "2"},
		{"--workload", "paper-sm", "--seconds", "-1"},
		{"--workload", "paper-sm", "extra"},
		{"--workload", "nonesuch", "--seconds", "0"},
		{"--bogus"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 || strings.Contains(out.String(), "{") {
			t.Errorf("%v: exit %d, want 2 and no result\n%s%s", args, code, out.String(), errb.String())
		}
	}
}

func tinyConfig(t *testing.T, workload string, seed uint64) config {
	t.Helper()
	base, err := loadBaseline(baselineJSON)
	if err != nil {
		t.Fatal(err)
	}
	return config{workload: workload, seed: seed, scale: scales["tiny"], baseline: base,
		spans: filepath.Join(t.TempDir(), "spans.json")}
}

func benchOutput(cfg config) (int, string) {
	var out, errb bytes.Buffer
	code := bench(cfg, &out, &errb)
	return code, errb.String() + out.String()
}

// failFrac reads the printed fail fraction.
func failFrac(t *testing.T, out string) float64 {
	t.Helper()
	m := regexp.MustCompile(`(?m)^fail_frac (\S+) `).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no fail_frac line\n%s", out)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestFailuresAreCountedNotFatal injects a protocol mutation into the
// stress runs and a wrong reference answer into the paper runs: both must
// finish, print every metric, and report the failures.
func TestFailuresAreCountedNotFatal(t *testing.T) {
	s := loadSpec(t)

	stress := tinyConfig(t, "stress", 2)
	stress.memFault = &mem.Fault{DropInval: true}
	paper := tinyConfig(t, "paper-sm", 2)
	paper.tamper = func(r *refs) { r.grainSum++ }

	for _, tc := range []struct {
		label   string
		cfg     config
		wantBad int // failed runs expected, or -1 for "at least one"
	}{
		{"stress drop-inval", stress, -1},
		{"paper-sm wrong grain answer", paper, len(scales["tiny"].grainDelays)},
	} {
		code, out := benchOutput(tc.cfg)
		if code != 0 {
			t.Errorf("%s: exit %d, want 0\n%s", tc.label, code, out)
		}
		r := lastResult(t, out)
		if r.Correct || r.Failed == 0 || (tc.wantBad >= 0 && r.Failed != tc.wantBad) {
			t.Errorf("%s: correct=%v failed=%d, want false and %d\n%s", tc.label, r.Correct, r.Failed, tc.wantBad, out)
		}
		if got, want := failFrac(t, out), float64(r.Failed)/float64(r.Attempted); got != want || got == 0 {
			t.Errorf("%s: fail_frac %v, want %v > 0", tc.label, got, want)
		}
		checkMetrics(t, tc.label, out, r, s.EndToEnd)
	}
}

// TestDigestMismatchExitsNonZero checks that simulated results differing
// from the baseline at the default seed fail the run.
func TestDigestMismatchExitsNonZero(t *testing.T) {
	cfg := tinyConfig(t, "stress", defaultSeed)
	cfg.baseline.Digests = map[string]map[string]string{"tiny": {"stress": fmt.Sprintf("%016x", 0)}}
	code, out := benchOutput(cfg)
	if code == 0 || !strings.Contains(out, "MISMATCH") {
		t.Errorf("exit %d, want non-zero with a MISMATCH line\n%s", code, out)
	}
	if r := lastResult(t, out); r.Correct {
		t.Errorf("correct=true despite the digest mismatch")
	}
	// At another seed the stress digest is not recorded, so not compared.
	cfg.seed = defaultSeed + 1
	if code, out := benchOutput(cfg); code != 0 {
		t.Errorf("seed %d: exit %d, want 0\n%s", cfg.seed, code, out)
	}
}
