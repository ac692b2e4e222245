package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked package of the module under analysis.
type Package struct {
	PkgPath string // import path ("memcontention/internal/obs")
	Dir     string // directory the files were parsed from
	Fset    *token.FileSet
	Files   []*ast.File // non-test files only
	Types   *types.Package
	Info    *types.Info
}

// LoadModule parses and type-checks every non-test package under the
// module rooted at dir (the directory containing go.mod) using only the
// standard library's go/parser + go/types + go/importer. Test files and
// testdata/ trees are excluded: the invariants memlint enforces protect
// artifacts produced by shipped code, and fixtures under testdata
// deliberately violate them.
//
// Packages are returned sorted by import path. Standard-library imports
// are resolved by compiling their source (importer "source"), so the
// loader needs no pre-built export data and no go build cache.
func LoadModule(dir string) ([]*Package, error) {
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	l := newLoader(root, modPath)
	dirs, err := moduleDirs(root)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, d := range dirs {
		pkg, err := l.load(l.importPathFor(d))
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].PkgPath < pkgs[j].PkgPath })
	return pkgs, nil
}

// ModulePath reads the module path from dir/go.mod.
func ModulePath(dir string) (string, error) {
	return modulePath(filepath.Join(dir, "go.mod"))
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("analysis: not a module root: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s", gomod)
}

// moduleDirs lists every directory under root holding non-test .go
// files, skipping hidden directories, testdata trees, vendor trees
// (vendored code is third-party: not ours to lint, and its import paths
// do not live under the module path) and nested modules (a directory
// with its own go.mod is another module, as `go list ./...` treats it).
func moduleDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(path, "go.mod")); path != root && err == nil {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	return dirs, err
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if isSourceFile(e) {
			return true
		}
	}
	return false
}

func isSourceFile(e os.DirEntry) bool {
	name := e.Name()
	return !e.IsDir() && strings.HasSuffix(name, ".go") &&
		!strings.HasSuffix(name, "_test.go") && !strings.HasPrefix(name, ".") && !strings.HasPrefix(name, "_")
}

// loader type-checks module packages on demand, resolving module-internal
// imports recursively and delegating everything else to the stdlib's
// source importer. All packages share one FileSet so diagnostics carry
// consistent positions.
type loader struct {
	root    string
	modPath string
	fset    *token.FileSet
	std     types.Importer
	pkgs    map[string]*Package // by import path; nil entry = in progress
	done    map[string]bool
}

func newLoader(root, modPath string) *loader {
	fset := token.NewFileSet()
	return &loader{
		root:    root,
		modPath: modPath,
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    make(map[string]*Package),
		done:    make(map[string]bool),
	}
}

// importPathFor maps a directory under the module root to its import path.
func (l *loader) importPathFor(dir string) string {
	rel, err := filepath.Rel(l.root, dir)
	if err != nil || rel == "." {
		return l.modPath
	}
	return l.modPath + "/" + filepath.ToSlash(rel)
}

// dirFor inverts importPathFor.
func (l *loader) dirFor(path string) string {
	if path == l.modPath {
		return l.root
	}
	return filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, l.modPath+"/")))
}

// inModule reports whether path names a package of the module under
// analysis.
func (l *loader) inModule(path string) bool {
	return path == l.modPath || strings.HasPrefix(path, l.modPath+"/")
}

// Import implements types.Importer for module-internal dependencies.
func (l *loader) Import(path string) (*types.Package, error) {
	if !l.inModule(path) {
		return l.std.Import(path)
	}
	pkg, err := l.load(path)
	if err != nil {
		return nil, err
	}
	if pkg == nil {
		return nil, fmt.Errorf("analysis: no Go files in %s", path)
	}
	return pkg.Types, nil
}

// load parses and type-checks one module package (cached). It returns
// (nil, nil) for directories with no buildable Go files.
func (l *loader) load(path string) (*Package, error) {
	if l.done[path] {
		if pkg, ok := l.pkgs[path]; ok && pkg == nil {
			return nil, fmt.Errorf("analysis: import cycle through %s", path)
		}
		return l.pkgs[path], nil
	}
	l.done[path] = true
	l.pkgs[path] = nil // marks in-progress for cycle detection

	dir := l.dirFor(path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %w", path, err)
	}
	var files []*ast.File
	for _, e := range entries {
		if !isSourceFile(e) {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: parse %s: %w", path, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		delete(l.pkgs, path)
		return nil, nil
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: typecheck %s: %w", path, err)
	}
	pkg := &Package{PkgPath: path, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = pkg
	return pkg, nil
}
