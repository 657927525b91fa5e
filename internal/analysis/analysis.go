// Package analysis is the simulator's static-analysis suite: five analyzers
// that enforce, at compile time, the rules the rest of the codebase states
// only in comments and checks only at runtime (DESIGN §8–§13) — engine
// confinement, deterministic output, pool discipline, allocation-free sink
// paths, and the nil-receiver-no-op convention. The paper's CMMU made
// illegal interactions between the message and shared-memory paths
// structurally impossible in hardware; this package is the equivalent for
// the Go reproduction.
//
// The framework mirrors the golang.org/x/tools/go/analysis API shape
// (Analyzer, Pass, Diagnostic) but is built on the standard library alone:
// packages are loaded via `go list -export` and type-checked against gc
// export data (load.go), so the suite needs no third-party modules. The
// cmd/alewife-lint driver runs it either standalone or as a
// unitchecker-compatible vettool under `go vet -vettool`.
//
// Rules are steered by three source annotations (DESIGN §14):
//
//	//alewife:engine-only          on a func/method: callable only on the
//	                               goroutine driving the owning engine
//	//alewife:hotpath              on a func/method: body must stay
//	                               closure-, boxing- and fmt-free
//	//alewife:nil-safe             on a type: every exported method must
//	                               begin with a receiver nil guard
//	//alewife:allow <name> <why>   on (or directly above) a flagged line:
//	                               suppress one analyzer with a reason
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named static check.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// A Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// A Pass holds one type-checked package plus reporting plumbing; an
// analyzer's Run sees exactly one Pass per package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// PkgPath is the import path with any test-variant suffix stripped.
	PkgPath string
	// Index resolves //alewife: annotations on module-local packages
	// (including this one) from source, without needing exported facts.
	Index *Index

	report func(Diagnostic)
	allow  map[allowKey]bool
}

type allowKey struct {
	file     string
	line     int
	analyzer string
}

// Reportf records a finding unless an //alewife:allow comment for this
// analyzer covers the position's line (or the line above), or the position
// is inside a _test.go file — the rules govern the simulator proper, not
// its tests.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	position := p.Fset.Position(pos)
	if strings.HasSuffix(position.Filename, "_test.go") {
		return
	}
	if p.allow[allowKey{position.Filename, position.Line, p.Analyzer.Name}] {
		return
	}
	p.report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// buildAllow indexes every well-formed suppression comment in the package:
// `//alewife:allow <analyzer> <reason>` grants its own line and the line
// below. A missing reason makes the suppression inert — an undocumented
// exemption is exactly the convention rot the suite exists to stop.
func (p *Pass) buildAllow() {
	p.allow = make(map[allowKey]bool)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//alewife:allow ")
				if !ok {
					continue
				}
				name, reason, _ := strings.Cut(strings.TrimSpace(rest), " ")
				if name == "" || strings.TrimSpace(reason) == "" {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				p.allow[allowKey{pos.Filename, pos.Line, name}] = true
				p.allow[allowKey{pos.Filename, pos.Line + 1, name}] = true
			}
		}
	}
}

// All returns the full suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		Determinism,
		EngineConfine,
		NilRecv,
		PoolEscape,
		SinkAlloc,
	}
}

// ByName resolves a comma-separated analyzer list; an unknown name is an
// error naming the known set.
func ByName(names string) ([]*Analyzer, error) {
	var out []*Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		found := false
		for _, a := range All() {
			if a.Name == name {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			var known []string
			for _, a := range All() {
				known = append(known, a.Name)
			}
			return nil, fmt.Errorf("unknown analyzer %q (known: %s)", name, strings.Join(known, ", "))
		}
	}
	return out, nil
}

// RunAnalyzers applies each analyzer to one loaded package and returns the
// findings sorted by position then analyzer name.
func RunAnalyzers(pkg *Package, idx *Index, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			PkgPath:  TrimTestVariant(pkg.Path),
			Index:    idx,
			report:   func(d Diagnostic) { diags = append(diags, d) },
		}
		pass.buildAllow()
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", pkg.Path, a.Name, err)
		}
	}
	sort.SliceStable(diags, func(i, j int) bool {
		if diags[i].Pos != diags[j].Pos {
			return diags[i].Pos < diags[j].Pos
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// TrimTestVariant strips go's " [pkg.test]" suffix from a test-variant
// import path.
func TrimTestVariant(path string) string {
	if i := strings.IndexByte(path, ' '); i >= 0 {
		return path[:i]
	}
	return path
}
