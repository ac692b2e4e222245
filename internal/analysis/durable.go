package analysis

import (
	"go/ast"
)

// DurableAnalyzer flags direct use of os.WriteFile, os.Create, os.Rename
// and os.MkdirAll outside the packages that implement the durable write
// path (internal/atomicio's stage→fsync→rename→dir-fsync sequence and
// internal/checkpoint's append-only journal). A direct write can be
// observed truncated or half-written after a crash, and a directory made
// with a bare os.MkdirAll can vanish along with everything written into
// it — exactly what the kill-and-resume soak harness asserts never
// happens to an artifact; every artifact or journal write elsewhere must
// go through internal/atomicio.
//
// Intentional non-artifact uses (a scratch file in a tool, a
// deliberately torn write in a crash simulator) are silenced in place
// with //memlint:allow durable — <reason>.
var DurableAnalyzer = &Analyzer{
	Name: "durable",
	Doc:  "direct os.WriteFile/os.Create/os.Rename/os.MkdirAll outside the durable-write packages",
	Run:  runDurable,
}

const tearRemedy = "can tear on crash; write artifacts through internal/atomicio"

// durableFuncs maps each flagged os function to the remedy it reports.
var durableFuncs = map[string]string{
	"WriteFile": tearRemedy,
	"Create":    tearRemedy,
	"Rename":    tearRemedy,
	"MkdirAll":  "can lose the new directory on crash; create it with atomicio.MkdirAll",
}

func runDurable(pass *Pass) {
	if stringSet(pass.Config.DurableWriterPkgs)[pass.Pkg.PkgPath] {
		return
	}
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pass.Pkg.Info.Uses[sel.Sel]
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "os" {
				return true
			}
			if remedy, ok := durableFuncs[obj.Name()]; ok {
				pass.Reportf(sel.Pos(), "direct os.%s %s", obj.Name(), remedy)
			}
			return true
		})
	}
}
