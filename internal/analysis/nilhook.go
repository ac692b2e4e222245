package analysis

import (
	"go/ast"
	"go/types"
)

// NilHookAnalyzer enforces the repo's nil-hook contract: the
// observability, tracing, profiling, fault and checkpoint hook types are
// documented as inert when nil — `var r *trace.Recorder; r.Append(ev)`
// must be a no-op, never a panic — so instrumentation can be threaded
// unconditionally and cost nothing when disabled (the halo-exchange
// bench's 331 allocs/op pin depends on it).
//
// For every configured hook type, each exported pointer-receiver method
// that dereferences the receiver (reads or writes one of its fields)
// must open with a nil-receiver guard:
//
//	func (r *Recorder) Append(ev Event) {
//		if r == nil { return }
//		...
//	}
//
// Methods that never touch receiver state — pure delegations like
// Counter.Inc calling c.Add, whose callee guards itself — are exempt:
// calling a method on a nil pointer is safe as long as nothing
// dereferences it.
var NilHookAnalyzer = &Analyzer{
	Name: "nilhook",
	Doc:  "exported hook-type methods must nil-guard before touching fields",
	Run:  runNilHook,
}

func runNilHook(pass *Pass) {
	hooks := stringSet(pass.Config.NilHookTypes)
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			tn := receiverTypeName(pass.Pkg, fd)
			if tn == "" || !hooks[pass.Pkg.PkgPath+"."+tn] {
				continue
			}
			if _, isPtr := fd.Recv.List[0].Type.(*ast.StarExpr); !isPtr {
				continue // value receivers copy; nil is not representable
			}
			recv := receiverObject(pass, fd)
			if recv == nil || recv.Name() == "_" || recv.Name() == "" {
				continue // unnamed receiver: the body cannot dereference it
			}
			if !derefsReceiver(pass, fd.Body, recv) {
				continue // delegation-only method; nil-safe by construction
			}
			if hasNilGuard(pass, fd.Body, recv) {
				continue
			}
			pass.Reportf(fd.Name.Pos(), "exported method (*%s).%s dereferences the receiver without a leading nil guard; nil %s hooks must be inert",
				tn, fd.Name.Name, tn)
		}
	}
}

// receiverObject returns the types.Var of the method's receiver.
func receiverObject(pass *Pass, fd *ast.FuncDecl) types.Object {
	names := fd.Recv.List[0].Names
	if len(names) != 1 {
		return nil
	}
	return pass.Pkg.Info.Defs[names[0]]
}

// derefsReceiver reports whether body reads or writes a field through the
// receiver (r.field, *r, or ranges/indexes r itself). Method calls on the
// receiver (r.Method(...)) do not count: they are dispatched on the
// pointer without dereferencing it, and the callee enforces its own
// guard.
func derefsReceiver(pass *Pass, body *ast.BlockStmt, recv types.Object) bool {
	info := pass.Pkg.Info
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.SelectorExpr:
			if id, ok := ast.Unparen(x.X).(*ast.Ident); ok && info.Uses[id] == recv {
				if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal {
					found = true
					return false
				}
			}
		case *ast.StarExpr:
			if id, ok := ast.Unparen(x.X).(*ast.Ident); ok && info.Uses[id] == recv {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// hasNilGuard reports whether the method body opens with a nil-receiver
// guard, in either accepted form:
//
//	if r == nil { ... return }      // early exit (possibly r == nil || more)
//	if r != nil { ...all derefs... } // inverted: state touched only inside
func hasNilGuard(pass *Pass, body *ast.BlockStmt, recv types.Object) bool {
	if len(body.List) == 0 {
		return false
	}
	ifStmt, ok := body.List[0].(*ast.IfStmt)
	if !ok || ifStmt.Init != nil {
		return false
	}
	if condChecksNil(pass, ifStmt.Cond, recv) && branchTerminates(ifStmt.Body) {
		return true
	}
	if leftmostIsNotNil(pass, ifStmt.Cond, recv) && !derefsOutsideGuard(pass, body, ifStmt, recv) {
		return true
	}
	return false
}

// leftmostIsNotNil reports whether the first-evaluated conjunct of cond
// is `recv != nil`, so the nil check runs before anything else in the
// condition can dereference the receiver.
func leftmostIsNotNil(pass *Pass, cond ast.Expr, recv types.Object) bool {
	info := pass.Pkg.Info
	e := ast.Unparen(cond)
	for {
		be, ok := e.(*ast.BinaryExpr)
		if !ok {
			return false
		}
		if be.Op.String() == "&&" {
			e = ast.Unparen(be.X)
			continue
		}
		if be.Op.String() != "!=" {
			return false
		}
		isRecv := func(x ast.Expr) bool {
			id, ok := ast.Unparen(x).(*ast.Ident)
			return ok && info.Uses[id] == recv
		}
		isNil := func(x ast.Expr) bool {
			id, ok := ast.Unparen(x).(*ast.Ident)
			return ok && id.Name == "nil"
		}
		return (isRecv(be.X) && isNil(be.Y)) || (isNil(be.X) && isRecv(be.Y))
	}
}

// derefsOutsideGuard reports whether any receiver dereference in the
// method body falls outside the inverted guard's then-branch.
func derefsOutsideGuard(pass *Pass, body *ast.BlockStmt, guard *ast.IfStmt, recv types.Object) bool {
	info := pass.Pkg.Info
	outside := false
	inGuard := func(n ast.Node) bool {
		return n.Pos() >= guard.Body.Pos() && n.End() <= guard.Body.End()
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if outside {
			return false
		}
		switch x := n.(type) {
		case *ast.SelectorExpr:
			if id, ok := ast.Unparen(x.X).(*ast.Ident); ok && info.Uses[id] == recv {
				if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal && !inGuard(x) {
					outside = true
					return false
				}
			}
		case *ast.StarExpr:
			if id, ok := ast.Unparen(x.X).(*ast.Ident); ok && info.Uses[id] == recv && !inGuard(x) {
				outside = true
				return false
			}
		}
		return true
	})
	return outside
}

// condChecksNil walks the top-level || chain of cond looking for a
// `recv == nil` comparison.
func condChecksNil(pass *Pass, cond ast.Expr, recv types.Object) bool {
	info := pass.Pkg.Info
	switch x := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		if x.Op.String() == "||" {
			return condChecksNil(pass, x.X, recv) || condChecksNil(pass, x.Y, recv)
		}
		if x.Op.String() != "==" {
			return false
		}
		isRecv := func(e ast.Expr) bool {
			id, ok := ast.Unparen(e).(*ast.Ident)
			return ok && info.Uses[id] == recv
		}
		isNil := func(e ast.Expr) bool {
			id, ok := ast.Unparen(e).(*ast.Ident)
			return ok && id.Name == "nil"
		}
		return (isRecv(x.X) && isNil(x.Y)) || (isNil(x.X) && isRecv(x.Y))
	}
	return false
}

// branchTerminates reports whether the guard's then-branch ends in a
// return or panic, i.e. actually protects the rest of the method.
func branchTerminates(body *ast.BlockStmt) bool {
	if len(body.List) == 0 {
		return false
	}
	switch last := body.List[len(body.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}
