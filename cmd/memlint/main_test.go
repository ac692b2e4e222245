package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the JSON golden file under testdata")

const fixture = "testdata/module"

// runLint invokes the CLI entry point against the fixture module and
// returns (exit code, stdout, stderr).
func runLint(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(append([]string{"-C", fixture}, args...), &out, &errb)
	return code, out.String(), errb.String()
}

// TestExitCodeFindings pins exit code 1 and the rendered report for a
// module with violations: output is sorted, module-relative and
// byte-stable.
func TestExitCodeFindings(t *testing.T) {
	code, out, _ := runLint(t)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (findings)", code)
	}
	want := []string{
		"dirty/dirty.go:12:33: [determinism] time.Now is nondeterministic",
		"dirty/dirty.go:16:9: [durable] direct os.WriteFile can tear on crash",
		"dirty/dirty.go:21:2: [goleak] goroutine has no provable termination path",
	}
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Errorf("output missing %q:\n%s", w, out)
		}
	}
	if strings.Contains(out, "clean/clean.go") {
		t.Errorf("clean package reported:\n%s", out)
	}

	// Identical tree, identical report.
	code2, out2, _ := runLint(t)
	if code2 != code || out2 != out {
		t.Error("second run differs from first; memlint output must be deterministic")
	}
}

// TestExitCodeClean pins exit code 0 when the package filter selects only
// conforming code.
func TestExitCodeClean(t *testing.T) {
	code, out, errb := runLint(t, "./clean")
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stdout:\n%s\nstderr:\n%s", code, out, errb)
	}
	if out != "" {
		t.Errorf("clean run produced output:\n%s", out)
	}
}

// TestExitCodeUsage pins exit code 2 for usage and load errors.
func TestExitCodeUsage(t *testing.T) {
	if code, _, _ := runLint(t, "-checks", "nosuchcheck"); code != 2 {
		t.Errorf("unknown -checks: exit = %d, want 2", code)
	}
	if code, _, _ := runLint(t, "./nosuchpkg"); code != 2 {
		t.Errorf("unmatched package pattern: exit = %d, want 2", code)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-C", "testdata"}, &out, &errb); code != 2 {
		t.Errorf("non-module dir: exit = %d, want 2", code)
	}
}

// TestChecksFilter restricts the run to one analyzer.
func TestChecksFilter(t *testing.T) {
	code, out, _ := runLint(t, "-checks", "durable")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if strings.Contains(out, "[determinism]") {
		t.Errorf("-checks durable still ran determinism:\n%s", out)
	}
	if !strings.Contains(out, "[durable]") {
		t.Errorf("-checks durable reported nothing:\n%s", out)
	}
}

// TestJSONGolden pins the -json report byte-for-byte: same findings and
// ordering as text mode, rendered as an indented JSON array.
func TestJSONGolden(t *testing.T) {
	code, out, _ := runLint(t, "-json")
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (findings)", code)
	}
	golden := filepath.Join("testdata", "findings.json")
	if *update {
		if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if out != string(want) {
		t.Errorf("-json output diverges from %s:\n--- got ---\n%s--- want ---\n%s", golden, out, want)
	}

	// Identical tree, identical bytes.
	_, out2, _ := runLint(t, "-json")
	if out2 != out {
		t.Error("second -json run differs from first")
	}
}

// TestJSONEmpty pins the empty report: a JSON array, not "null".
func TestJSONEmpty(t *testing.T) {
	code, out, _ := runLint(t, "-json", "./clean")
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	if strings.TrimSpace(out) != "[]" {
		t.Errorf("empty -json report = %q, want []", out)
	}
}

// TestOutputFile proves -o writes the same bytes the report would print,
// through the durable write path, for both text and JSON modes.
func TestOutputFile(t *testing.T) {
	for _, mode := range [][]string{{}, {"-json"}} {
		_, want, _ := runLint(t, mode...)
		path := filepath.Join(t.TempDir(), "report.out")
		code, out, _ := runLint(t, append(append([]string{}, mode...), "-o", path)...)
		if code != 1 {
			t.Fatalf("mode %v: exit = %d, want 1", mode, code)
		}
		if out != "" {
			t.Errorf("mode %v: -o still wrote to stdout:\n%s", mode, out)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if string(got) != want {
			t.Errorf("mode %v: file report differs from stdout report:\n--- file ---\n%s--- stdout ---\n%s", mode, got, want)
		}
	}
}

// TestLoadFailureModes pins exit 2 plus a stderr diagnostic (and no
// panic) for the ways loading can fail: a module with a type error, an
// empty module, and a package pattern that only matches vendored code.
func TestLoadFailureModes(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-C", "testdata/typeerr"}, &out, &errb); code != 2 {
		t.Errorf("type-error module: exit = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "typecheck") {
		t.Errorf("type-error module: stderr missing typecheck diagnostic:\n%s", errb.String())
	}

	out.Reset()
	errb.Reset()
	if code := run([]string{"-C", "testdata/empty"}, &out, &errb); code != 2 {
		t.Errorf("empty module: exit = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "no Go packages") {
		t.Errorf("empty module: stderr missing diagnostic:\n%s", errb.String())
	}

	// vendor/ is skipped by the loader: the deliberately broken vendored
	// package must not fail the load, and naming it matches nothing.
	code, _, errs := runLint(t, "./vendor/...")
	if code != 2 {
		t.Errorf("vendored pattern: exit = %d, want 2", code)
	}
	if !strings.Contains(errs, "no packages match") {
		t.Errorf("vendored pattern: stderr missing diagnostic:\n%s", errs)
	}
}

// TestNestedModuleSkipped pins that a directory with its own go.mod is
// another module, skipped like vendor/ (as `go list ./...` skips it):
// its deliberately broken package neither fails the load nor matches.
func TestNestedModuleSkipped(t *testing.T) {
	code, _, errs := runLint(t, "./nested/...")
	if code != 2 {
		t.Errorf("nested-module pattern: exit = %d, want 2", code)
	}
	if !strings.Contains(errs, "no packages match") {
		t.Errorf("nested-module pattern: stderr missing diagnostic:\n%s", errs)
	}
}

// TestListChecks pins the -list inventory.
func TestListChecks(t *testing.T) {
	code, out, _ := runLint(t, "-list")
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	for _, name := range []string{"determinism", "maprange", "nilhook", "durable", "errhygiene", "lockguard", "goleak", "ctxflow", "suppress"} {
		if !strings.Contains(out, name) {
			t.Errorf("-list missing %q:\n%s", name, out)
		}
	}
}
