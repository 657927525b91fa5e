package analysis

import (
	"go/ast"
)

// NilRecv enforces the nil-receiver-no-op convention: a type annotated
// //alewife:nil-safe (trace.Buffer, metrics.Profiler, stats.Machine)
// promises that a nil pointer is its disabled state, so every exported
// method must begin with a receiver nil guard — otherwise "disabled" works
// only for the methods the author remembered, and the first cold-path call
// on a nil sink panics deep inside a run.
var NilRecv = &Analyzer{
	Name: "nilrecv",
	Doc:  "exported methods of //alewife:nil-safe types must open with a receiver nil guard",
	Run:  runNilRecv,
}

func runNilRecv(pass *Pass) error {
	// Collect the annotated type names declared in this package. The
	// annotation may sit on the type's own doc comment or on the
	// enclosing const/var/type declaration group.
	safe := make(map[string]bool)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			groupDir := DeclDirective(gd.Doc)
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if DeclDirective(ts.Doc) == DirNilSafe || groupDir == DirNilSafe {
					safe[ts.Name.Name] = true
				}
			}
		}
	}
	if len(safe) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || len(fd.Recv.List) == 0 || !fd.Name.IsExported() {
				continue
			}
			recvType := fd.Recv.List[0].Type
			ptr := false
			if st, ok := recvType.(*ast.StarExpr); ok {
				ptr = true
				recvType = st.X
			}
			id, ok := recvType.(*ast.Ident)
			if !ok || !safe[id.Name] {
				continue
			}
			if !ptr {
				pass.Reportf(fd.Pos(), "nil-safe type %s: exported method %s has a value receiver; a nil *%s would panic on the implicit dereference — use a pointer receiver with a nil guard", id.Name, fd.Name.Name, id.Name)
				continue
			}
			if fd.Body == nil || len(fd.Body.List) == 0 {
				continue // an empty body cannot dereference the receiver
			}
			if len(fd.Recv.List[0].Names) == 0 || fd.Recv.List[0].Names[0].Name == "_" {
				pass.Reportf(fd.Pos(), "nil-safe type %s: exported method %s has no named receiver to nil-guard", id.Name, fd.Name.Name)
				continue
			}
			recvName := fd.Recv.List[0].Names[0].Name
			if !opensWithNilGuard(fd.Body.List[0], recvName) {
				pass.Reportf(fd.Pos(), "nil-safe type %s: exported method %s must start with `if %s == nil { return ... }` (the nil receiver is the documented disabled state)", id.Name, fd.Name.Name, recvName)
			}
		}
	}
	return nil
}

// opensWithNilGuard reports whether stmt is `if recv == nil { ... return }`,
// where the condition may be a || chain with the nil check as one disjunct
// (`if p == nil || cycles == 0 { return }` still returns on a nil receiver).
// The guard body must leave the method: its last statement is a return.
func opensWithNilGuard(stmt ast.Stmt, recv string) bool {
	ifs, ok := stmt.(*ast.IfStmt)
	if !ok || ifs.Init != nil || ifs.Else != nil {
		return false
	}
	if !condHasNilCheck(ifs.Cond, recv) {
		return false
	}
	if len(ifs.Body.List) == 0 {
		return false
	}
	_, ret := ifs.Body.List[len(ifs.Body.List)-1].(*ast.ReturnStmt)
	return ret
}

// condHasNilCheck reports whether cond contains `recv == nil` as itself or
// as a disjunct of a || chain.
func condHasNilCheck(cond ast.Expr, recv string) bool {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return false
	}
	if be.Op.String() == "||" {
		return condHasNilCheck(be.X, recv) || condHasNilCheck(be.Y, recv)
	}
	if be.Op.String() != "==" {
		return false
	}
	isRecv := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && id.Name == recv
	}
	isNil := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && id.Name == "nil"
	}
	return (isRecv(be.X) && isNil(be.Y)) || (isNil(be.X) && isRecv(be.Y))
}
