package campaign

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"memcontention"
	"memcontention/internal/bench"
	"memcontention/internal/checkpoint"
	"memcontention/internal/faults"
	"memcontention/internal/prof"
	"memcontention/internal/topology"
	"memcontention/internal/trace"
)

// testNames keeps campaign tests fast: two platforms cover the sample and
// non-sample placement categories.
var testNames = []string{"henri", "henri-subnuma"}

func testPlan() *faults.Plan {
	return &faults.Plan{
		Seed: 7,
		Events: []faults.Event{
			{At: 0.001, Kind: faults.LinkDegrade, Factor: 0.5, Duration: 0.01},
			{At: 0.002, Kind: faults.MsgDelay, Extra: 0.001, Probability: 0.5, Duration: 0.05},
		},
	}
}

// readArtifacts loads every pipeline artifact file of dir keyed by name.
func readArtifacts(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}

func TestPipelineKillResumeByteIdentical(t *testing.T) {
	// Uninterrupted baseline, no journal.
	baseline, err := Pipeline(Config{Seed: 1}, testNames)
	if err != nil {
		t.Fatal(err)
	}
	baseDir := filepath.Join(t.TempDir(), "base")
	if err := baseline.Write(baseDir); err != nil {
		t.Fatal(err)
	}

	// Kill the campaign after its 3rd journal record, then resume.
	jpath := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := checkpoint.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	j.RecordHook = func(key string, total int) {
		if total == 3 {
			cancel()
		}
	}
	_, err = Pipeline(Config{Seed: 1, Context: ctx, Journal: j}, testNames)
	if !checkpoint.IsCanceled(err) {
		t.Fatalf("interrupted pipeline err = %v, want cancellation", err)
	}
	if j.Len() < 3 {
		t.Fatalf("journal has %d entries at interruption, want >= 3", j.Len())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// The journal on disk is valid and the resumed run completes.
	j2, err := checkpoint.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.RecoveredBytes() != 0 {
		t.Fatalf("clean interruption left %d bytes to recover", j2.RecoveredBytes())
	}
	if j2.LoadedEntries() < 3 {
		t.Fatalf("reopened journal has %d entries", j2.LoadedEntries())
	}
	resumed, err := Pipeline(Config{Seed: 1, Journal: j2}, testNames)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(baseline, resumed) {
		t.Fatal("resumed pipeline result differs from uninterrupted baseline")
	}
	resDir := filepath.Join(t.TempDir(), "resumed")
	if err := resumed.Write(resDir); err != nil {
		t.Fatal(err)
	}

	base, res := readArtifacts(t, baseDir), readArtifacts(t, resDir)
	if len(base) != len(res) || len(base) == 0 {
		t.Fatalf("artifact sets differ: %d vs %d files", len(base), len(res))
	}
	for name, want := range base {
		if !bytes.Equal(want, res[name]) {
			t.Errorf("artifact %s differs between baseline and resumed run", name)
		}
	}
}

func TestPipelineFullyJournaledNeedsNoMeasurement(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := checkpoint.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	first, err := Pipeline(Config{Seed: 1, Journal: j}, testNames)
	if err != nil {
		t.Fatal(err)
	}
	written := j.Len()
	// Second run over the same journal: every unit is a hit, so nothing
	// new is measured or recorded.
	j.RecordHook = func(key string, _ int) {
		t.Errorf("fully journaled replay recorded %q", key)
	}
	second, err := Pipeline(Config{Seed: 1, Journal: j}, testNames)
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != written {
		t.Fatalf("replay wrote %d new journal entries", j.Len()-written)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("journaled replay differs from original run")
	}
}

func TestCrossCheckUnderFaultPlanJournaled(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := checkpoint.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	cfg := Config{Seed: 1, Journal: j, FaultPlan: testPlan()}
	first, err := CrossCheck(cfg, "henri")
	if err != nil {
		t.Fatal(err)
	}
	if first.PlanSeed != 7 || first.PlanEvents != 2 {
		t.Fatalf("plan metadata not recorded: %+v", first)
	}
	second, err := CrossCheck(cfg, "henri")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("journaled cross-check differs: %+v vs %+v", first, second)
	}
	// A different plan must not hit the journaled outcome.
	other := testPlan()
	other.Seed = 8
	if key, k2 := crossCheckKey(cfg, "henri"), crossCheckKey(Config{FaultPlan: other}, "henri"); key == k2 {
		t.Fatal("different plans share a journal key")
	}
	// Without a plan the key also differs.
	if key, k2 := crossCheckKey(cfg, "henri"), crossCheckKey(Config{}, "henri"); key == k2 {
		t.Fatal("plan and plan-free cross-checks share a journal key")
	}
}

func TestCrossCheckCancellationIsNotJournaled(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := checkpoint.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = CrossCheck(Config{Journal: j, Context: ctx}, "henri")
	if !checkpoint.IsCanceled(err) {
		t.Fatalf("err = %v, want cancellation", err)
	}
	if j.Len() != 0 {
		t.Fatal("canceled cross-check was journaled")
	}
}

func TestCurvesJournalResume(t *testing.T) {
	plat, err := topology.ByName("henri")
	if err != nil {
		t.Fatal(err)
	}
	placements := bench.AllPlacements(plat)
	jpath := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := checkpoint.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	// Cancel after the first two curves are journaled.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	j.RecordHook = func(_ string, total int) {
		if total == 2 {
			cancel()
		}
	}
	cfg := Config{Journal: j, Context: ctx}
	_, err = Curves(cfg, bench.Config{Platform: plat}, placements)
	if !checkpoint.IsCanceled(err) {
		t.Fatalf("err = %v, want cancellation", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := checkpoint.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	resumed, err := Curves(Config{Journal: j2}, bench.Config{Platform: plat}, placements)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Curves(Config{}, bench.Config{Platform: plat}, placements)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, resumed) {
		t.Fatal("resumed curves differ from a fresh run")
	}
}

func TestCurvesAcceptsRootPlacementType(t *testing.T) {
	plat, err := topology.ByName("henri")
	if err != nil {
		t.Fatal(err)
	}
	out, err := Curves(Config{}, bench.Config{Platform: plat}, []memcontention.Placement{{Comp: 0, Comm: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Placement.Comm != 1 {
		t.Fatalf("unexpected curves: %+v", out)
	}
}

func TestProgress(t *testing.T) {
	if got := Progress(nil); got != "no journal" {
		t.Fatalf("Progress(nil) = %q", got)
	}
	jpath := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := checkpoint.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if got := Progress(j); got != "journal empty" {
		t.Fatalf("Progress(empty) = %q", got)
	}
	for _, key := range []string{"bench|a", "bench|b", "eval|a", "xcheck|a"} {
		if err := j.Record(key, 1); err != nil {
			t.Fatal(err)
		}
	}
	got := Progress(j)
	for _, want := range []string{"2 bench", "1 eval", "1 xcheck", "journaled"} {
		if !strings.Contains(got, want) {
			t.Fatalf("Progress() = %q, missing %q", got, want)
		}
	}
}

func TestTestbedNames(t *testing.T) {
	names := TestbedNames()
	if len(names) != len(topology.Testbed()) {
		t.Fatalf("%d names, want %d", len(names), len(topology.Testbed()))
	}
	if names[0] != "henri" {
		t.Fatalf("first platform = %q", names[0])
	}
}

// TestCrossCheckSpanStitchResume: profiled cross-check units on two
// platforms form one merged trace. Killing the campaign after the first
// unit and resuming with a fresh profiler must stitch the cached unit's
// span file and record the second live, producing a trace byte-identical
// to an uninterrupted run — including span ids, which the resumed
// profiler advances past the stitched slice.
func TestCrossCheckSpanStitchResume(t *testing.T) {
	dir := t.TempDir()
	units := []string{"henri", "dahu"}
	run := func(j *checkpoint.Journal, p *prof.Profiler, store *prof.SpanStore, n int) {
		t.Helper()
		for _, name := range units[:n] {
			if _, err := CrossCheck(Config{Journal: j, Profiler: p, SpanStore: store}, name); err != nil {
				t.Fatal(err)
			}
		}
	}
	encode := func(p *prof.Profiler) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := trace.WriteEventsJSONL(&buf, p.Events()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	// Uninterrupted reference recording.
	jRef, err := checkpoint.Open(filepath.Join(dir, "ref.journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer jRef.Close()
	pRef := prof.Attach(nil)
	run(jRef, pRef, prof.NewSpanStore(filepath.Join(dir, "ref.journal.spans")), 2)
	want := encode(pRef)
	if len(want) == 0 {
		t.Fatal("reference trace is empty")
	}

	// First attempt dies after one unit.
	jpath := filepath.Join(dir, "run.journal")
	store := prof.NewSpanStore(jpath + ".spans")
	j1, err := checkpoint.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	run(j1, prof.Attach(nil), store, 1)
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	// Resume: unit 1 stitches from the span store, unit 2 runs live.
	j2, err := checkpoint.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	p2 := prof.Attach(nil)
	run(j2, p2, store, 2)
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(p2), want) {
		t.Error("stitched trace differs from uninterrupted recording")
	}

	// A second resume hits both caches: everything stitched, nothing run,
	// still byte-identical (no double-recording).
	j3, err := checkpoint.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	p3 := prof.Attach(nil)
	run(j3, p3, store, 2)
	if !bytes.Equal(encode(p3), want) {
		t.Error("fully cached replay differs from uninterrupted recording")
	}
}
