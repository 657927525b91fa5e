package analysis

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"
)

// Determinism enforces the rule every golden test and every replayable
// seed depends on: simulation output is a function of the configuration
// alone. Three sub-rules:
//
//   - no wall-clock or ambient randomness inside internal/ packages:
//     time.Now / time.Since / time.Sleep (and friends) and the global
//     math/rand source (rand.Intn etc.; seeded rand.New is fine) leak
//     host state into simulated behavior;
//   - no goroutine spawns inside the confined engine packages
//     (internal/{sim,mem,cmmu,mesh,machine,core} and their subpackages):
//     one engine is one logical thread of control (context bodies are
//     iter.Pull coroutines, which switch without a go statement), and the
//     one legitimate spawn site, the fanout pool, carries an
//     //alewife:allow suppression explaining its synchronization;
//   - no `range` over a map whose loop body emits output (fmt calls,
//     io.Writer-style Write* methods, encoders): map order is random per
//     process, so anything it feeds — reports, traces, goldens, error
//     lists — must iterate sorted keys instead.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "forbid wall-clock, global rand, engine-package goroutines, and map-ordered output",
	Run:  runDeterminism,
}

// confinedRe matches import paths of packages owned by a single engine
// goroutine, where a bare `go` statement would break the confinement that
// makes runs replayable.
var confinedRe = regexp.MustCompile(`(^|/)internal/(sim|mem|cmmu|mesh|machine|core)(/|$)`)

// bannedTime are time-package functions that read the host clock. (Pure
// constructors and conversions — Duration arithmetic, Unix, Date — are
// fine; none of them observe the environment.)
var bannedTime = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true, "AfterFunc": true,
}

// outputMethods are method names whose presence inside a map-range body
// marks the loop as feeding an output or encoding path.
var outputMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"WriteTo": true, "Encode": true, "Print": true, "Printf": true, "Println": true,
}

func runDeterminism(pass *Pass) error {
	internal := strings.Contains(pass.PkgPath+"/", "internal/")
	confined := confinedRe.MatchString(pass.PkgPath)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if confined {
					pass.Reportf(n.Pos(), "goroutine spawn in engine-confined package %s: engine state is single-threaded by construction (DESIGN §8); use sim contexts, or document the synchronization with //alewife:allow", pass.PkgPath)
				}
			case *ast.CallExpr:
				if internal {
					checkAmbient(pass, n)
				}
			case *ast.RangeStmt:
				checkMapRange(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkAmbient flags calls that read the host clock or the global
// math/rand source.
func checkAmbient(pass *Pass, call *ast.CallExpr) {
	fn := CalleeFunc(pass.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if bannedTime[fn.Name()] {
			pass.Reportf(call.Pos(), "time.%s reads the host clock: simulation output must depend on config and virtual time only", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		// Package-level functions draw from the shared global source;
		// constructors (New, NewSource, NewZipf, ...) build seeded
		// generators and are the sanctioned alternative.
		sig, _ := fn.Type().(*types.Signature)
		if sig != nil && sig.Recv() == nil && !strings.HasPrefix(fn.Name(), "New") {
			pass.Reportf(call.Pos(), "global math/rand source (%s.%s) is seeded from the environment: use a rand.New(rand.NewSource(seed)) owned by the run", fn.Pkg().Path(), fn.Name())
		}
	}
}

// checkMapRange flags `range m` over a map when the loop body emits output.
func checkMapRange(pass *Pass, rng *ast.RangeStmt) {
	tv, ok := pass.Info.Types[rng.X]
	if !ok {
		return
	}
	t := tv.Type
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	reported := false
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || reported {
			return !reported
		}
		fn := CalleeFunc(pass.Info, call)
		if fn == nil {
			return true
		}
		sig, _ := fn.Type().(*types.Signature)
		isMethod := sig != nil && sig.Recv() != nil
		switch {
		case fn.Pkg() != nil && fn.Pkg().Path() == "fmt":
			reported = true
			pass.Reportf(rng.Pos(), "map iteration order feeds output (fmt.%s in loop body): collect and sort the keys first", fn.Name())
			return false
		case isMethod && outputMethods[fn.Name()]:
			reported = true
			pass.Reportf(rng.Pos(), "map iteration order feeds output (%s call in loop body): collect and sort the keys first", fn.Name())
			return false
		}
		return true
	})
}
