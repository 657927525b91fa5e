package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SinkAlloc keeps the event-emission paths allocation-free. Functions
// annotated //alewife:hotpath (sink Fire dispatchers, trace emission, the
// pooled schedulers) ran at zero allocs/op when they were benchmarked;
// this analyzer pins that property structurally by rejecting the three
// ways allocations creep back in:
//
//   - function literals (every capture is a heap escape);
//   - fmt calls (interface boxing plus formatting state);
//   - boxing a scalar into an interface parameter or variable.
//
// Arguments of panic(...) are exempt: a panicking hot path is already
// outside the budget, and the formatted message is worth the allocation.
var SinkAlloc = &Analyzer{
	Name: "sinkalloc",
	Doc:  "//alewife:hotpath functions must not allocate: no closures, fmt, or scalar-to-interface boxing",
	Run:  runSinkAlloc,
}

func runSinkAlloc(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || DeclDirective(fd.Doc) != DirHotPath || fd.Body == nil {
				continue
			}
			checkHotPath(pass, fd)
		}
	}
	return nil
}

func checkHotPath(pass *Pass, fd *ast.FuncDecl) {
	// Positions inside panic(...) arguments are cold by construction.
	var coldRanges [][2]token.Pos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" && isBuiltinUse(pass, id) {
			// The predeclared builtin resolves to a *types.Builtin; a
			// shadowing local func named panic would be a *types.Func.
			for _, arg := range call.Args {
				coldRanges = append(coldRanges, [2]token.Pos{arg.Pos(), arg.End()})
			}
		}
		return true
	})
	cold := func(pos token.Pos) bool {
		for _, r := range coldRanges {
			if pos >= r[0] && pos <= r[1] {
				return true
			}
		}
		return false
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil || cold(n.Pos()) {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "closure in //alewife:hotpath function %s: captures escape to the heap; use a pooled record or an explicit struct", fd.Name.Name)
			return false
		case *ast.CallExpr:
			fn := CalleeFunc(pass.Info, n)
			if fn == nil {
				return true
			}
			if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
				pass.Reportf(n.Pos(), "fmt.%s in //alewife:hotpath function %s: formatting allocates; emit typed fields instead", fn.Name(), fd.Name.Name)
				return true
			}
			checkBoxing(pass, fd, n, fn)
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) {
					break
				}
				lt, lok := pass.Info.Types[n.Lhs[i]]
				if !lok || !types.IsInterface(lt.Type) {
					continue
				}
				if isScalar(pass, rhs) {
					pass.Reportf(rhs.Pos(), "scalar boxed into interface in //alewife:hotpath function %s: this allocates per event", fd.Name.Name)
				}
			}
		case *ast.ValueSpec:
			if n.Type == nil || !types.IsInterface(pass.Info.TypeOf(n.Type)) {
				return true
			}
			for _, v := range n.Values {
				if isScalar(pass, v) {
					pass.Reportf(v.Pos(), "scalar boxed into interface in //alewife:hotpath function %s: this allocates per event", fd.Name.Name)
				}
			}
		}
		return true
	})
}

// checkBoxing flags scalar arguments bound to interface parameters.
func checkBoxing(pass *Pass, fd *ast.FuncDecl, call *ast.CallExpr, fn *types.Func) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (i < params.Len() && !sig.Variadic()):
			pt = params.At(i).Type()
		case sig.Variadic() && params.Len() > 0:
			if call.Ellipsis != token.NoPos && i == params.Len()-1 {
				pt = params.At(params.Len() - 1).Type() // f(xs...): no per-element boxing
			} else if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		if isScalar(pass, arg) {
			pass.Reportf(arg.Pos(), "scalar argument boxed into interface parameter of %s in //alewife:hotpath function %s: this allocates per event", fn.Name(), fd.Name.Name)
		}
	}
}

// isBuiltinUse reports whether an identifier resolves to a predeclared
// builtin (or to nothing at all, as some tools record builtins).
func isBuiltinUse(pass *Pass, id *ast.Ident) bool {
	obj := pass.Info.Uses[id]
	if obj == nil {
		return true
	}
	_, ok := obj.(*types.Builtin)
	return ok
}

// isScalar reports whether the expression has basic (numeric, bool,
// string) type — the kinds whose conversion to interface allocates.
func isScalar(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Kind() != types.UntypedNil && b.Kind() != types.Invalid
}
