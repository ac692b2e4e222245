package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// SuppressCheck is the pseudo-check name under which malformed and stale
// //memlint:allow comments are reported. It exists so that suppressions
// are themselves linted: an allowance must name a real check, give a
// reason, and actually silence something — otherwise it is noise that
// will outlive the code it excused.
const SuppressCheck = "suppress"

// allowPrefix introduces a suppression comment:
//
//	//memlint:allow <check> — <reason>
//
// placed on the offending line or on the line directly above it. The
// separator may be an em dash (—), an en dash (–) or "--".
const allowPrefix = "memlint:allow"

// suppression is one parsed //memlint:allow comment.
type suppression struct {
	pos    token.Pos
	line   int
	check  string
	reason string
	used   bool
	// lastLine: the comment sits on the final line of its file. Such a
	// comment additionally covers the line above it: a trailing comment
	// on a file's closing line (no newline after it) has nothing below
	// it to suppress, so the target is unambiguous.
	lastLine bool
}

// collectSuppressions parses every memlint:allow comment in the package.
// Malformed comments (unknown check, missing reason) are reported
// immediately under the "suppress" check and excluded from matching.
func collectSuppressions(pkg *Package, known map[string]bool, report func(token.Pos, string, ...any)) []*suppression {
	var sups []*suppression
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				check, reason, ok := allowText(c)
				if !ok {
					continue
				}
				if s := parseAllow(pkg, c, check, reason, known, report); s != nil {
					sups = append(sups, s)
				}
			}
		}
	}
	return sups
}

// allowText splits a //memlint:allow comment into the check it names
// and its reason; ok is false when c is not an allowance at all.
func allowText(c *ast.Comment) (check, reason string, ok bool) {
	text := strings.TrimPrefix(c.Text, "//")
	text = strings.TrimPrefix(text, "/*")
	text = strings.TrimSpace(strings.TrimSuffix(text, "*/"))
	rest, ok := strings.CutPrefix(text, allowPrefix)
	if !ok {
		return "", "", false
	}
	rest = strings.TrimSpace(rest)
	check = rest
	for _, sep := range []string{"—", "–", "--"} {
		if i := strings.Index(rest, sep); i >= 0 {
			check = strings.TrimSpace(rest[:i])
			reason = strings.TrimSpace(rest[i+len(sep):])
			break
		}
	}
	return check, reason, true
}

// parseAllow validates one suppression's check and reason.
func parseAllow(pkg *Package, c *ast.Comment, check, reason string, known map[string]bool, report func(token.Pos, string, ...any)) *suppression {
	switch {
	case check == "":
		report(c.Pos(), "malformed //memlint:allow: missing check name (want \"//memlint:allow <check> — <reason>\")")
		return nil
	case !known[check]:
		report(c.Pos(), "//memlint:allow names unknown check %q", check)
		return nil
	case reason == "":
		report(c.Pos(), "//memlint:allow %s has no reason; justify the suppression after an em dash", check)
		return nil
	}
	line := pkg.Fset.Position(c.Pos()).Line
	lastLine := false
	if f := pkg.Fset.File(c.Pos()); f != nil {
		lastLine = line == f.LineCount()
	}
	return &suppression{
		pos:      c.Pos(),
		line:     line,
		check:    check,
		reason:   reason,
		lastLine: lastLine,
	}
}

// applySuppressions filters raw diagnostics through the package's
// //memlint:allow comments and appends "suppress" findings for malformed
// and stale ones. A suppression on line L silences matching diagnostics
// on line L (trailing comment) and line L+1 (comment above); when L is
// the final line of its file — e.g. a comment trailing the closing
// brace of the last function, with no newline after it — it also covers
// line L-1, since nothing can follow it.
func applySuppressions(pkg *Package, raw []Diagnostic, analyzers []*Analyzer) []Diagnostic {
	// The allow vocabulary is the full registry, not just the analyzers
	// of this run: `-checks determinism` must not call an allowance for
	// another check a typo. Staleness, in contrast, is only decidable
	// for checks that actually ran.
	known := stringSet(CheckNames(Analyzers()))
	running := stringSet(CheckNames(analyzers))
	var out []Diagnostic
	report := func(pos token.Pos, format string, args ...any) {
		pass := &Pass{Pkg: pkg, diags: &out, check: SuppressCheck}
		pass.Reportf(pos, format, args...)
	}
	sups := collectSuppressions(pkg, known, report)
	byFile := make(map[string][]*suppression)
	for _, s := range sups {
		f := pkg.Fset.Position(s.pos).Filename
		byFile[f] = append(byFile[f], s)
	}
	for _, d := range raw {
		suppressed := false
		for _, s := range byFile[d.Path] {
			if s.check == d.Check && (s.line == d.Line || s.line == d.Line-1 || (s.lastLine && s.line == d.Line+1)) {
				s.used = true
				suppressed = true
			}
		}
		if !suppressed {
			out = append(out, d)
		}
	}
	for _, s := range sups {
		if !s.used && running[s.check] {
			report(s.pos, "stale //memlint:allow %s: no %s diagnostic on this or the next line — remove it", s.check, s.check)
		}
	}
	return out
}
