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
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The fixture harness is an analysistest-style runner built on the same
// stdlib-only loader as memlint itself. A fixture is one package
// directory under internal/analysis/testdata/src whose files carry
// expectation comments:
//
//	r.events = append(r.events, ev) // want "without a leading nil guard"
//
// Each `// want "re"` comment expects exactly one diagnostic on its line
// whose message matches the regexp; several quoted regexps expect
// several diagnostics. RunFixture fails the test on any unmatched
// expectation and any unexpected diagnostic, so every fixture proves
// both that its analyzer fires and that it stays silent on conforming
// code in the same package.

var wantRe = regexp.MustCompile(`//\s*want((?:\s+"(?:[^"\\]|\\.)*")+)`)
var wantArgRe = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

// LoadFixture parses and type-checks the single package in dir. The
// package's import path is its base name, so fixture-local types are
// addressed in Config lists as "<dirname>.<TypeName>". Fixtures may
// import the standard library only.
func LoadFixture(dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: fixture %s: %w", dir, err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		if !isSourceFile(e) {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: fixture %s: %w", dir, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: fixture %s has no Go files", dir)
	}
	path := filepath.Base(dir)
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: fixture %s: typecheck: %w", dir, err)
	}
	return &Package{PkgPath: path, Dir: dir, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}

// expectation is one `// want "re"` entry.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	met  bool
}

// collectWants scans the fixture's comments for // want expectations.
func collectWants(pkg *Package) ([]*expectation, error) {
	var wants []*expectation
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, q := range wantArgRe.FindAllString(m[1], -1) {
					pat, err := strconv.Unquote(q)
					if err != nil {
						return nil, fmt.Errorf("%s:%d: bad want pattern %s: %w", pos.Filename, pos.Line, q, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						return nil, fmt.Errorf("%s:%d: bad want regexp %q: %w", pos.Filename, pos.Line, pat, err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants, nil
}

// RunFixture runs the analyzers (plus suppression processing) over the
// fixture package in dir and checks the diagnostics against the
// fixture's // want comments. It returns the diagnostics so callers can
// additionally golden-test the rendered output.
func RunFixture(t *testing.T, dir string, cfg *Config, analyzers ...*Analyzer) []Diagnostic {
	t.Helper()
	pkg, err := LoadFixture(dir)
	if err != nil {
		t.Fatalf("%v", err)
		return nil
	}
	diags := Run([]*Package{pkg}, analyzers, cfg)
	wants, err := collectWants(pkg)
	if err != nil {
		t.Fatalf("%v", err)
		return nil
	}
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.met && w.file == d.Path && w.line == d.Line && w.re.MatchString(d.Message) {
				w.met = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.met {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
	return diags
}

// RenderDiagnostics formats diagnostics one per line with paths
// relative to base (for golden files that must not embed absolute
// build paths).
func RenderDiagnostics(diags []Diagnostic, base string) string {
	var b strings.Builder
	for _, d := range diags {
		rel := d.Path
		if r, err := filepath.Rel(base, d.Path); err == nil {
			rel = filepath.ToSlash(r)
		}
		fmt.Fprintf(&b, "%s:%d:%d: [%s] %s\n", rel, d.Line, d.Col, d.Check, d.Message)
	}
	return b.String()
}

// SortedChecks lists the distinct checks present in diags.
func SortedChecks(diags []Diagnostic) []string {
	seen := make(map[string]bool)
	for _, d := range diags {
		seen[d.Check] = true
	}
	out := make([]string, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}
