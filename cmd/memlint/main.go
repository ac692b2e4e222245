// Command memlint runs the repo's custom static-analysis suite (see
// internal/analysis and docs/static-analysis.md): determinism, map-range
// ordering, nil-hook safety, durable writes, error hygiene, the
// whole-module concurrency checks (lockguard, goleak, ctxflow) and the
// unreachable-code check, all implemented on the standard library alone.
//
// Usage:
//
//	memlint [-C dir] [-checks list] [-json] [-o file] [packages...]
//
// Package arguments are module import paths; the "..." suffix matches a
// subtree and a bare "./..." (the default) means the whole module. The
// module is always loaded and analyzed in full — the arguments only
// filter which packages' findings are reported — so cross-package type
// information and the call graph behind the concurrency checks are
// complete either way.
//
// Exit codes (documented for CI):
//
//	0  no findings
//	1  findings were reported
//	2  usage, load or type-check error
//
// Every finding is printed to stdout as "file:line:col: [check] message",
// sorted and deduplicated, so output is byte-stable for identical trees.
// -json switches the report to a JSON array in the same order; -o writes
// the report durably (atomic rename) to a file instead of stdout.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"memcontention/internal/analysis"
	"memcontention/internal/atomicio"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("memlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("C", ".", "module root to analyze (directory containing go.mod)")
	checks := fs.String("checks", "", "comma-separated checks to run (default: all; see -list)")
	list := fs.Bool("list", false, "list available checks and exit")
	jsonOut := fs.Bool("json", false, "report findings as a JSON array (same order as text)")
	outPath := fs.String("o", "", "write the report to this file (durable atomic write) instead of stdout")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: memlint [-C dir] [-checks list] [-json] [-o file] [packages...]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := analysis.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(stdout, "%-12s %s\n", analysis.SuppressCheck, "malformed or stale //memlint:allow comments (always on)")
		return 0
	}
	if *checks != "" {
		analyzers = selectChecks(analyzers, *checks)
		if analyzers == nil {
			fmt.Fprintf(stderr, "memlint: unknown check in -checks %q (use -list)\n", *checks)
			return 2
		}
	}

	pkgs, err := analysis.LoadModule(*dir)
	if err != nil {
		fmt.Fprintf(stderr, "memlint: %v\n", err)
		return 2
	}
	if len(pkgs) == 0 {
		fmt.Fprintf(stderr, "memlint: module at %s contains no Go packages\n", *dir)
		return 2
	}
	modPath, err := analysis.ModulePath(*dir)
	if err != nil {
		fmt.Fprintf(stderr, "memlint: %v\n", err)
		return 2
	}
	keep := pkgFilter(modPath, pkgs, fs.Args())
	if len(keep) == 0 {
		fmt.Fprintf(stderr, "memlint: no packages match %v\n", fs.Args())
		return 2
	}

	// Analyze the whole module — the call-graph checks need every caller
	// — then report only the findings inside the selected packages.
	diags := analysis.Run(pkgs, analyzers, analysis.DefaultConfig())
	keptDir := make(map[string]bool, len(keep))
	for _, p := range keep {
		keptDir[p.Dir] = true
	}
	var shown []analysis.Diagnostic
	for _, d := range diags {
		if keptDir[filepath.Dir(d.Path)] {
			shown = append(shown, d)
		}
	}

	abs, _ := filepath.Abs(*dir)
	var report bytes.Buffer
	if *jsonOut {
		if err := renderJSON(&report, shown, abs); err != nil {
			fmt.Fprintf(stderr, "memlint: %v\n", err)
			return 2
		}
	} else {
		for _, d := range shown {
			fmt.Fprintf(&report, "%s:%d:%d: [%s] %s\n", relPath(abs, d.Path), d.Line, d.Col, d.Check, d.Message)
		}
	}
	if *outPath != "" {
		err := atomicio.WriteStream(*outPath, 0o644, func(w io.Writer) error {
			_, werr := w.Write(report.Bytes())
			return werr
		})
		if err != nil {
			fmt.Fprintf(stderr, "memlint: %v\n", err)
			return 2
		}
	} else if _, err := stdout.Write(report.Bytes()); err != nil {
		return 2
	}
	if len(shown) > 0 {
		fmt.Fprintf(stderr, "memlint: %d finding(s) in %d package(s)\n", len(shown), len(keep))
		return 1
	}
	return 0
}

// jsonFinding is one diagnostic in -json output. Field order is the
// render order; paths are module-relative exactly as in text mode.
type jsonFinding struct {
	Path    string `json:"path"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

// renderJSON writes the findings as an indented JSON array (a "[]" when
// empty), byte-stable because the input is already sorted and deduped.
func renderJSON(w io.Writer, diags []analysis.Diagnostic, base string) error {
	findings := make([]jsonFinding, 0, len(diags))
	for _, d := range diags {
		findings = append(findings, jsonFinding{
			Path:    relPath(base, d.Path),
			Line:    d.Line,
			Col:     d.Col,
			Check:   d.Check,
			Message: d.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(findings)
}

// relPath renders a diagnostic path relative to the module root (slash
// separated), leaving paths outside the root untouched.
func relPath(base, path string) string {
	if r, err := filepath.Rel(base, path); err == nil && !strings.HasPrefix(r, "..") {
		return filepath.ToSlash(r)
	}
	return path
}

// selectChecks filters analyzers by a comma-separated name list (nil on
// an unknown name).
func selectChecks(all []*analysis.Analyzer, list string) []*analysis.Analyzer {
	byName := make(map[string]*analysis.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" || name == analysis.SuppressCheck {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil
		}
		out = append(out, a)
	}
	return out
}

// pkgFilter keeps the packages matching the argument patterns. Patterns
// are module-relative ("./...", "./internal/obs", "internal/obs/...") or
// full import paths; no arguments (or "./...") keeps everything.
func pkgFilter(modPath string, pkgs []*analysis.Package, args []string) []*analysis.Package {
	if len(args) == 0 {
		return pkgs
	}
	match := func(p *analysis.Package) bool {
		for _, raw := range args {
			pat := strings.TrimPrefix(raw, "./")
			if pat == "..." || pat == "." {
				return true
			}
			full := pat
			if !strings.HasPrefix(pat, modPath) {
				full = modPath + "/" + pat
			}
			if prefix, ok := strings.CutSuffix(full, "/..."); ok {
				if p.PkgPath == prefix || strings.HasPrefix(p.PkgPath, prefix+"/") {
					return true
				}
				continue
			}
			if p.PkgPath == full {
				return true
			}
		}
		return false
	}
	var keep []*analysis.Package
	for _, p := range pkgs {
		if match(p) {
			keep = append(keep, p)
		}
	}
	return keep
}
