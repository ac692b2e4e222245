package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// UnreachableAnalyzer reports declared functions and methods that no
// shipped entry point reaches. The roots are
//
//   - main and init of every package (cmd/, scripts/, examples/ alike);
//   - package-level var initializers;
//   - the exported API of the facade — the package at the module path,
//     i.e. the one every other analyzed package sits under — plus the
//     exported methods of every type that API exposes, followed through
//     aliases, parameters, results, exported and embedded fields,
//     element types and type arguments;
//   - methods that implement an interface declared outside the module
//     (fmt.Stringer, json.Marshaler, http.Handler, sort.Interface, …) or
//     error, and Unwrap/Is/As on error types, which errors.Is/As call
//     without a named interface.
//
// Any reference to a function is an edge, not just a call: function
// values, method values and method expressions all count, and a
// reference to an interface method reaches every module type whose
// method set matches (the call graph's dispatchCandidates).
//
// memlint loads no _test.go files, so a function kept only for tests or
// benchmarks is reported like dead code. It is kept by
//
//	//memlint:allow unreachable — <the test or benchmark that calls it>
//
// directly above its func line. The allowance consumes the finding and
// makes the function a root, so its callees need no comment of their
// own; once shipped code reaches the function the finding disappears
// and the suppress check reports the allowance stale.
var UnreachableAnalyzer = &Analyzer{
	Name: unreachableCheck,
	Doc:  "functions and methods no main, init, package var or facade API reaches",
	Run:  runUnreachable,
}

const unreachableCheck = "unreachable"

func runUnreachable(pass *Pass) {
	if pass.mod.dead == nil {
		pass.mod.dead = findUnreachable(pass.mod.pkgs)
	}
	for _, d := range *pass.mod.dead {
		if d.pkg == pass.Pkg {
			pass.Reportf(d.pos, "%s", d.msg)
		}
	}
}

// declFunc is one function or method declared with a body in the module.
type declFunc struct {
	fn      *types.Func
	fd      *ast.FuncDecl
	pkg     *Package
	allowed bool // carries //memlint:allow unreachable above its func line
}

// reacher floods reachability over function references.
type reacher struct {
	decls    map[*types.Func]*declFunc
	module   map[*types.Package]bool
	concrete []*types.Named
	reached  map[*types.Func]bool
	queue    []*declFunc
	exposed  map[types.Type]bool
}

// findUnreachable computes the module's unreachable findings once.
func findUnreachable(pkgs []*Package) *[]modDiag {
	r := &reacher{
		decls:    make(map[*types.Func]*declFunc),
		module:   make(map[*types.Package]bool),
		concrete: concreteNamedTypes(pkgs),
		reached:  make(map[*types.Func]bool),
		exposed:  make(map[types.Type]bool),
	}
	var all []*declFunc
	for _, pkg := range pkgs {
		r.module[pkg.Types] = true
		for _, file := range pkg.Files {
			allowLines := unreachableAllowLines(pkg, file)
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				d := &declFunc{fn: fn, fd: fd, pkg: pkg, allowed: allowLines[pkg.Fset.Position(fd.Pos()).Line-1]}
				r.decls[fn] = d
				all = append(all, d)
			}
		}
	}

	extern := externalInterfaces(pkgs, r.module)
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				if gd, ok := decl.(*ast.GenDecl); ok {
					r.refs(pkg, gd)
				}
			}
		}
	}
	for _, d := range all {
		name := d.fd.Name.Name
		switch {
		case d.fd.Recv == nil && (name == "init" || name == "main" && d.pkg.Types.Name() == "main"):
			r.mark(d.fn)
		case d.fd.Recv != nil && implementsExternal(d.fn, extern):
			r.mark(d.fn)
		}
	}
	if facade := facadePackage(pkgs); facade != nil {
		scope := facade.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			if fn, ok := obj.(*types.Func); ok {
				r.use(fn)
			}
			r.expose(obj.Type())
		}
	}
	r.flood()

	shipped := make(map[*types.Func]bool, len(r.reached))
	for fn := range r.reached {
		shipped[fn] = true
	}
	for _, d := range all {
		if d.allowed {
			r.mark(d.fn)
		}
	}
	r.flood()

	var out []modDiag
	for _, d := range all {
		if shipped[d.fn] || (r.reached[d.fn] && !d.allowed) {
			continue
		}
		name := strings.TrimPrefix(qualifiedFuncName(d.fn), d.pkg.PkgPath+".")
		out = append(out, modDiag{
			pkg: d.pkg, pos: d.fd.Name.Pos(),
			msg: name + " is unreachable: no main, init, package var or facade API reaches it",
		})
	}
	return &out
}

// mark records fn as reached, queueing module declarations for a walk.
func (r *reacher) mark(fn *types.Func) {
	fn = fn.Origin()
	d, ok := r.decls[fn]
	if !ok || r.reached[fn] {
		return
	}
	r.reached[fn] = true
	r.queue = append(r.queue, d)
}

// use records a reference to fn: an interface method reaches every
// module type whose method set matches, anything else reaches fn.
func (r *reacher) use(fn *types.Func) {
	sig := fn.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		if iface, ok := recv.Type().Underlying().(*types.Interface); ok {
			for _, c := range dispatchCandidates(iface, fn.Name(), r.concrete) {
				r.mark(c.fn)
			}
			return
		}
	}
	r.mark(fn)
}

// refs records every function referenced inside n.
func (r *reacher) refs(pkg *Package, n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if fn, ok := pkg.Info.Uses[id].(*types.Func); ok {
				r.use(fn)
			}
		}
		return true
	})
}

// flood walks the bodies of queued functions until nothing new is reached.
func (r *reacher) flood() {
	for len(r.queue) > 0 {
		d := r.queue[0]
		r.queue = r.queue[1:]
		r.refs(d.pkg, d.fd.Body)
	}
}

// expose marks the exported methods of every module type t makes
// visible to a caller outside the module, following t's structure.
func (r *reacher) expose(t types.Type) {
	if r.exposed[t] {
		return
	}
	r.exposed[t] = true
	switch t := t.(type) {
	case *types.Alias:
		r.expose(types.Unalias(t))
	case *types.Named:
		for i := 0; i < t.TypeArgs().Len(); i++ {
			r.expose(t.TypeArgs().At(i))
		}
		if !r.module[t.Obj().Pkg()] {
			return
		}
		recv := types.Type(t)
		if !types.IsInterface(t) {
			recv = types.NewPointer(t)
		}
		ms := types.NewMethodSet(recv)
		for i := 0; i < ms.Len(); i++ {
			if m, ok := ms.At(i).Obj().(*types.Func); ok && m.Exported() {
				r.use(m)
				r.expose(m.Type())
			}
		}
		r.expose(t.Underlying())
	case *types.Map:
		r.expose(t.Key())
		r.expose(t.Elem())
	case interface{ Elem() types.Type }: // pointer, slice, array, chan
		r.expose(t.Elem())
	case *types.Signature:
		for _, tuple := range []*types.Tuple{t.Params(), t.Results()} {
			for i := 0; i < tuple.Len(); i++ {
				r.expose(tuple.At(i).Type())
			}
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if f := t.Field(i); f.Exported() || f.Embedded() {
				r.expose(f.Type())
			}
		}
	case *types.TypeParam:
		r.expose(t.Constraint())
	}
}

// facadePackage returns the package every other analyzed package sits
// under (the package at the module path), or nil when there is none.
func facadePackage(pkgs []*Package) *Package {
	for _, p := range pkgs {
		root := true
		for _, q := range pkgs {
			if q.PkgPath != p.PkgPath && !strings.HasPrefix(q.PkgPath, p.PkgPath+"/") {
				root = false
				break
			}
		}
		if root {
			return p
		}
	}
	return nil
}

// externalInterfaces indexes, by method name, every package-scope
// interface declared outside the module in the packages it imports
// (transitively), plus error.
func externalInterfaces(pkgs []*Package, module map[*types.Package]bool) map[string][]*types.Interface {
	byName := make(map[string][]*types.Interface)
	add := func(iface *types.Interface) {
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			byName[name] = append(byName[name], iface)
		}
	}
	add(errorIface)
	seen := make(map[*types.Package]bool)
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		if !module[p] {
			scope := p.Scope()
			for _, name := range scope.Names() {
				if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
					if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
						add(iface)
					}
				}
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, pkg := range pkgs {
		walk(pkg.Types)
	}
	return byName
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// errorMethods are called by errors.Is/As/Unwrap through anonymous
// interfaces on any error value.
var errorMethods = stringSet([]string{"Unwrap", "Is", "As"})

// implementsExternal reports whether method m's receiver type satisfies
// an external interface that has m, or m is Unwrap/Is/As on an error.
func implementsExternal(m *types.Func, extern map[string][]*types.Interface) bool {
	named := namedRecvType(m.Type().(*types.Signature).Recv().Type())
	if named == nil {
		return false
	}
	implements := func(iface *types.Interface) bool {
		return types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface)
	}
	if errorMethods[m.Name()] && implements(errorIface) {
		return true
	}
	for _, iface := range extern[m.Name()] {
		if implements(iface) {
			return true
		}
	}
	return false
}

// unreachableAllowLines returns the lines of file holding a well-formed
// //memlint:allow unreachable comment.
func unreachableAllowLines(pkg *Package, file *ast.File) map[int]bool {
	lines := make(map[int]bool)
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if check, reason, ok := allowText(c); ok && check == unreachableCheck && reason != "" {
				lines[pkg.Fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return lines
}
