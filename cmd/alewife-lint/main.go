// Command alewife-lint runs the simulator's static-analysis suite
// (internal/analysis): engine confinement, determinism, pool discipline,
// allocation-free hot paths, and nil-receiver guards.
//
// It has two front doors:
//
//   - standalone: `alewife-lint [-analyzers a,b] [packages...]` loads the
//     packages (default ./...) via `go list -export`, runs the suite, and
//     prints findings. Exit 0 clean, 1 findings, 2 usage or load errors.
//
//   - vettool: `go vet -vettool=$(which alewife-lint) ./...` — the tool
//     speaks the cmd/vet unitchecker protocol (-V=full handshake, -flags,
//     then one *.cfg JSON per package), so the build cache drives it
//     incrementally like any vet analyzer. Findings exit 2, matching vet.
//
// There is no baseline file and no way to ignore a finding wholesale: a
// legitimate exception carries an //alewife:allow comment with a reason,
// in the source it excuses.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"alewife/internal/analysis"
)

func main() {
	os.Exit(run(os.Args, os.Stdout, os.Stderr))
}

// vetConfig is the subset of cmd/vet's unitchecker config the tool needs.
type vetConfig struct {
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

func run(argv []string, stdout, stderr io.Writer) int {
	args := argv[1:]

	// The vet handshake comes before flag parsing: go vet probes the tool
	// with -V=full (expecting "<name> version <ver>" for cache keying) and
	// -flags (expecting a JSON flag description; we expose none).
	for _, a := range args {
		switch a {
		case "-V=full", "--V=full":
			// A "devel" version must carry a buildID for go's cache key;
			// like x/tools' unitchecker, hash this very executable so the
			// cache invalidates when the tool is rebuilt.
			h := sha256.New()
			if exe, err := os.Open(argv[0]); err == nil {
				io.Copy(h, exe)
				exe.Close()
			}
			fmt.Fprintf(stdout, "%s version devel buildID=%x\n", filepath.Base(argv[0]), h.Sum(nil))
			return 0
		case "-flags", "--flags":
			fmt.Fprintln(stdout, "[]")
			return 0
		}
	}

	fs := flag.NewFlagSet("alewife-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := fs.String("analyzers", "", "comma-separated analyzer subset (default: all)")
	dir := fs.String("dir", ".", "directory to resolve package patterns in")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: alewife-lint [-analyzers a,b] [-dir d] [packages...]\n")
		fmt.Fprintf(stderr, "       (as a vettool) go vet -vettool=alewife-lint ./...\n\n")
		fs.PrintDefaults()
		fmt.Fprintf(stderr, "\nanalyzers:\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(stderr, "  %-14s %s\n", a.Name, a.Doc)
		}
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := analysis.All()
	if *names != "" {
		var err error
		if analyzers, err = analysis.ByName(*names); err != nil {
			fmt.Fprintf(stderr, "alewife-lint: %v\n", err)
			return 2
		}
	}

	// One positional *.cfg argument means go vet is driving.
	if rest := fs.Args(); len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		return runVet(rest[0], analyzers, stderr)
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, resolve, err := analysis.Load(*dir, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "alewife-lint: %v\n", err)
		return 2
	}
	idx := analysis.NewIndex(resolve)
	found := 0
	for _, pkg := range pkgs {
		diags, err := analysis.RunAnalyzers(pkg, idx, analyzers)
		if err != nil {
			fmt.Fprintf(stderr, "alewife-lint: %v\n", err)
			return 2
		}
		for _, d := range diags {
			fmt.Fprintf(stdout, "%s: %s (%s)\n", pkg.Fset.Position(d.Pos), d.Message, d.Analyzer)
			found++
		}
	}
	if found > 0 {
		fmt.Fprintf(stderr, "alewife-lint: %d finding(s)\n", found)
		return 1
	}
	return 0
}

// runVet handles one unitchecker invocation: type-check the package the
// config describes from its export-data closure, run the suite, and write
// the (empty — the suite exports no facts) vetx output.
func runVet(cfgPath string, analyzers []*analysis.Analyzer, stderr io.Writer) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(stderr, "alewife-lint: reading vet config: %v\n", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(stderr, "alewife-lint: parsing vet config %s: %v\n", cfgPath, err)
		return 1
	}
	if cfg.VetxOnly {
		// A facts-only pass over a dependency: nothing to compute.
		return writeVetx(cfg.VetxOutput, stderr)
	}
	pkg, err := analysis.TypeCheckFiles(cfg.ImportPath, cfg.GoFiles, cfg.ImportMap, cfg.PackageFile)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return writeVetx(cfg.VetxOutput, stderr)
		}
		fmt.Fprintf(stderr, "alewife-lint: %v\n", err)
		return 1
	}
	idx := analysis.NewIndex(moduleResolver(cfg.Dir))
	diags, err := analysis.RunAnalyzers(pkg, idx, analyzers)
	if err != nil {
		fmt.Fprintf(stderr, "alewife-lint: %v\n", err)
		return 1
	}
	if rc := writeVetx(cfg.VetxOutput, stderr); rc != 0 {
		return rc
	}
	if len(diags) > 0 {
		for _, d := range diags {
			fmt.Fprintf(stderr, "%s: %s (%s)\n", pkg.Fset.Position(d.Pos), d.Message, d.Analyzer)
		}
		return 2 // what vet's own unitchecker exits with on findings
	}
	return 0
}

// moduleResolver locates the enclosing module of dir (walking up to its
// go.mod) and maps module-internal import paths to source directories for
// the annotation index. Outside a module every path resolves to "", which
// just means no annotations are visible.
func moduleResolver(dir string) func(string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return func(string) string { return "" }
	}
	for root := abs; ; root = filepath.Dir(root) {
		data, err := os.ReadFile(filepath.Join(root, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if mod, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return analysis.ModuleResolver(strings.TrimSpace(mod), root)
				}
			}
		}
		if filepath.Dir(root) == root {
			return func(string) string { return "" }
		}
	}
}

// writeVetx creates the facts output go vet expects to cache, empty
// because none of the suite's analyzers export facts.
func writeVetx(path string, stderr io.Writer) int {
	if path == "" {
		return 0
	}
	if err := os.WriteFile(path, nil, 0o666); err != nil {
		fmt.Fprintf(stderr, "alewife-lint: writing vetx: %v\n", err)
		return 1
	}
	return 0
}
