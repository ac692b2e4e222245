package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"memcontention/internal/checkpoint"
	"memcontention/internal/obs"
)

// TestOutKillResumeByteIdenticalArtifacts interrupts a -out run
// mid-evaluation and asserts the resumed run writes artifact files byte
// identical to an uninterrupted run's.
func TestOutKillResumeByteIdenticalArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("full testbed evaluation")
	}
	base := t.TempDir()
	freshDir := filepath.Join(base, "fresh")
	var buf bytes.Buffer
	if err := run(context.Background(), &buf, options{out: freshDir, seed: 1, workers: 2, replications: 1}, &checkpoint.CLI{}, &obs.CLI{}); err != nil {
		t.Fatal(err)
	}

	jpath := filepath.Join(base, "run.ckpt")
	j, err := checkpoint.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	j.RecordHook = func(_ string, total int) {
		if total == 5 {
			cancel()
		}
	}
	resumedDir := filepath.Join(base, "resumed")
	err = dispatch(ctx, &buf, options{out: resumedDir, seed: 1, workers: 2, replications: 1}, j, nil)
	if !checkpoint.IsCanceled(err) {
		t.Fatalf("err = %v, want cancellation", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	ckpt := &checkpoint.CLI{Path: jpath, Resume: true}
	if err := run(context.Background(), &buf, options{out: resumedDir, seed: 1, workers: 2, replications: 1}, ckpt, &obs.CLI{}); err != nil {
		t.Fatalf("resume failed: %v", err)
	}

	entries, err := os.ReadDir(freshDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no artifacts written")
	}
	for _, e := range entries {
		want, err := os.ReadFile(filepath.Join(freshDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(resumedDir, e.Name()))
		if err != nil {
			t.Fatalf("resumed run missing artifact %s: %v", e.Name(), err)
		}
		if !bytes.Equal(want, got) {
			t.Errorf("artifact %s differs between fresh and resumed run", e.Name())
		}
	}
}

func TestTable2ToWriter(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), &out, options{table: 1, seed: 1, replications: 1}, &checkpoint.CLI{}, &obs.CLI{}); err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 {
		t.Fatal("no output for -table 1")
	}
}

// TestShardedOutMatchesSequential drives the -shards path end to end:
// the supervised sharded executor must write -out artifacts byte
// identical to the plain sequential run, and -replications must add the
// replication summary artifacts.
func TestShardedOutMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("full testbed evaluation")
	}
	base := t.TempDir()
	seqDir := filepath.Join(base, "seq")
	var buf bytes.Buffer
	if err := run(context.Background(), &buf, options{out: seqDir, seed: 1, workers: 2, replications: 2}, &checkpoint.CLI{}, &obs.CLI{}); err != nil {
		t.Fatal(err)
	}
	shardedDir := filepath.Join(base, "sharded")
	o := options{out: shardedDir, seed: 1, workers: 4, replications: 2, shards: filepath.Join(base, "run.shards")}
	if err := run(context.Background(), &buf, o, &checkpoint.CLI{}, &obs.CLI{}); err != nil {
		t.Fatal(err)
	}

	entries, err := os.ReadDir(seqDir)
	if err != nil {
		t.Fatal(err)
	}
	sawReplications := false
	for _, e := range entries {
		if e.Name() == "replications.txt" {
			sawReplications = true
		}
		want, err := os.ReadFile(filepath.Join(seqDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(shardedDir, e.Name()))
		if err != nil {
			t.Fatalf("sharded run missing artifact %s: %v", e.Name(), err)
		}
		if !bytes.Equal(want, got) {
			t.Errorf("artifact %s differs between sequential and sharded run", e.Name())
		}
	}
	if !sawReplications {
		t.Fatal("replicated run wrote no replications.txt")
	}
}

var update = flag.Bool("update", false, "rewrite testdata/artifacts.sha256 from current output")

// writeOut runs paperfigs -workers 1 -out into a fresh directory and
// returns it.
func writeOut(t *testing.T, o options) string {
	t.Helper()
	o.out = filepath.Join(t.TempDir(), "out")
	o.workers = 1
	var buf bytes.Buffer
	if err := run(context.Background(), &buf, o, &checkpoint.CLI{}, &obs.CLI{}); err != nil {
		t.Fatal(err)
	}
	return o.out
}

// TestArtifactHashes locks every -out artifact byte for byte: it
// regenerates the artifacts for seeds 1, 2 and 3 and one -replications 5
// run, and compares their SHA-256 sums (sha256sum format) against
// testdata/artifacts.sha256. Refresh with
// `go test ./cmd/paperfigs -run ArtifactHashes -update`.
func TestArtifactHashes(t *testing.T) {
	if testing.Short() {
		t.Skip("full testbed evaluations")
	}
	runs := []struct {
		name string
		o    options
	}{
		{"seed1", options{seed: 1, replications: 1}},
		{"seed2", options{seed: 2, replications: 1}},
		{"seed3", options{seed: 3, replications: 1}},
		{"seed1-rep5", options{seed: 1, replications: 5}},
	}
	var sums strings.Builder
	for _, r := range runs {
		dir := writeOut(t, r.o)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&sums, "%x  %s/%s\n", sha256.Sum256(data), r.name, e.Name())
		}
	}
	golden := filepath.Join("testdata", "artifacts.sha256")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(sums.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if got := sums.String(); got != string(want) {
		t.Errorf("artifact hashes differ from %s (run with -update after intended changes):\ngot:\n%s\nwant:\n%s",
			golden, got, want)
	}
}

// TestReportAblationFollowsSeed checks that a report's ablation scores the
// evaluation it reports: for seed 2, report-henri.txt's threshold-model
// ablation row must equal its own Table II "all" columns.
func TestReportAblationFollowsSeed(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(writeOut(t, options{seed: 2, replications: 1}), "report-henri.txt"))
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string][]string{}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			rows[f[0]] = f
		}
	}
	comm, comp, model := rows["Communications"], rows["Computations"], rows["threshold-model"]
	if len(comm) < 2 || len(comp) < 2 || len(model) < 4 {
		t.Fatalf("report-henri.txt lacks the Table II or ablation rows:\n%s", data)
	}
	// Table II row: "Communications  <s> %  <n> %  <all> %"; ablation row:
	// "threshold-model  <comm> %  <comp> %  <overall> %".
	if got, want := model[1], comm[len(comm)-2]; got != want {
		t.Errorf("threshold-model comm MAPE %s %%, Table II comm all %s %%", got, want)
	}
	if got, want := model[3], comp[len(comp)-2]; got != want {
		t.Errorf("threshold-model comp MAPE %s %%, Table II comp all %s %%", got, want)
	}
}
