package campaign

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"memcontention/internal/checkpoint"
	"memcontention/internal/obs"
)

// noSleep removes retry backoff from tests.
func noSleep(context.Context, time.Duration) error { return nil }

// writeSeqBaseline runs the sequential pipeline and returns its artifact
// bytes — the reference every sharded run must reproduce exactly.
func writeSeqBaseline(t *testing.T, cfg Config) map[string][]byte {
	t.Helper()
	art, err := Pipeline(cfg, testNames)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "seq")
	if err := art.Write(dir); err != nil {
		t.Fatal(err)
	}
	return readArtifacts(t, dir)
}

// assertSameArtifacts compares two artifact sets byte for byte.
func assertSameArtifacts(t *testing.T, want, got map[string][]byte) {
	t.Helper()
	if len(want) != len(got) || len(want) == 0 {
		t.Fatalf("artifact sets differ: %d vs %d files", len(want), len(got))
	}
	for name, w := range want {
		if !bytes.Equal(w, got[name]) {
			t.Errorf("artifact %s differs from the sequential baseline", name)
		}
	}
}

func TestShardedPipelineByteIdenticalToSequential(t *testing.T) {
	want := writeSeqBaseline(t, Config{Seed: 1})

	res, err := ShardedPipeline(Config{Seed: 1}, ShardOptions{Workers: 8, Sleep: noSleep}, testNames)
	if err != nil {
		t.Fatal(err)
	}
	if res.Artifacts == nil {
		t.Fatal("sharded run produced no artifacts")
	}
	dir := filepath.Join(t.TempDir(), "sharded")
	if err := res.Artifacts.Write(dir); err != nil {
		t.Fatal(err)
	}
	assertSameArtifacts(t, want, readArtifacts(t, dir))

	p := res.Progress
	if p.Done != p.Units || p.Units == 0 {
		t.Fatalf("progress %d/%d, want all done", p.Done, p.Units)
	}
	if p.Quarantined != 0 || len(res.Quarantine) != 0 {
		t.Fatalf("clean run quarantined %d units", p.Quarantined)
	}
	if len(p.Shards) != 8 {
		t.Fatalf("progress covers %d shards, want 8", len(p.Shards))
	}
}

func TestShardedPipelineSurvivesWorkerKills(t *testing.T) {
	want := writeSeqBaseline(t, Config{Seed: 1})

	// Kill the first 6 unit starts, each on whatever worker picked the
	// unit up; the supervisor must restart them all and still finish.
	var mu sync.Mutex
	kills := 0
	reg := obs.NewRegistry()
	res, err := ShardedPipeline(Config{Seed: 1, Registry: reg}, ShardOptions{
		Workers: 4,
		Sleep:   noSleep,
		KillHook: func(shard int, key string) bool {
			mu.Lock()
			defer mu.Unlock()
			if kills < 6 {
				kills++
				return true
			}
			return false
		},
	}, testNames)
	if err != nil {
		t.Fatal(err)
	}
	if kills != 6 {
		t.Fatalf("killed %d workers, want 6", kills)
	}
	if res.Progress.Restarts < 6 {
		t.Fatalf("progress reports %d restarts, want >= 6", res.Progress.Restarts)
	}
	if len(res.Quarantine) != 0 {
		t.Fatalf("infrastructure kills quarantined units: %+v", res.Quarantine)
	}
	dir := filepath.Join(t.TempDir(), "sharded")
	if err := res.Artifacts.Write(dir); err != nil {
		t.Fatal(err)
	}
	assertSameArtifacts(t, want, readArtifacts(t, dir))
}

func TestShardedPipelineTransientFaultRetries(t *testing.T) {
	want := writeSeqBaseline(t, Config{Seed: 1})

	// Every unit fails its first attempt; the retry budget absorbs it.
	var mu sync.Mutex
	failed := map[string]bool{}
	res, err := ShardedPipeline(Config{Seed: 1}, ShardOptions{
		Workers: 4,
		Sleep:   noSleep,
		FaultHook: func(key string, attempt int) error {
			mu.Lock()
			defer mu.Unlock()
			if !failed[key] {
				failed[key] = true
				return errors.New("transient fault injected")
			}
			return nil
		},
	}, testNames)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Quarantine) != 0 {
		t.Fatalf("transient faults quarantined units: %+v", res.Quarantine)
	}
	dir := filepath.Join(t.TempDir(), "sharded")
	if err := res.Artifacts.Write(dir); err != nil {
		t.Fatal(err)
	}
	assertSameArtifacts(t, want, readArtifacts(t, dir))
}

func TestShardedPipelinePoisonUnitQuarantined(t *testing.T) {
	shardDir := t.TempDir()
	poison := "unit|netbench|" + testNames[0]
	res, err := ShardedPipeline(Config{Seed: 1}, ShardOptions{
		Workers:     4,
		Dir:         shardDir,
		MaxAttempts: 2,
		Sleep:       noSleep,
		FaultHook: func(key string, attempt int) error {
			if key == poison {
				return errors.New("poison unit")
			}
			return nil
		},
	}, testNames)

	var qerr *QuarantineError
	if !errors.As(err, &qerr) {
		t.Fatalf("err = %v, want *QuarantineError", err)
	}
	if !errors.Is(err, ErrQuarantined) {
		t.Fatal("quarantine error does not wrap ErrQuarantined")
	}
	if res.Artifacts != nil {
		t.Fatal("quarantined campaign still assembled artifacts")
	}
	if len(qerr.Records) != 1 || qerr.Records[0].Key != poison {
		t.Fatalf("quarantine records = %+v, want only %q", qerr.Records, poison)
	}
	if qerr.Records[0].Attempts != 2 {
		t.Fatalf("poison unit got %d attempts, want 2", qerr.Records[0].Attempts)
	}
	if !strings.Contains(qerr.Records[0].Error, "poison unit") {
		t.Fatalf("quarantine record lost the cause: %q", qerr.Records[0].Error)
	}

	// The report is durable, structured and re-readable — never silent.
	disk, err := ReadQuarantine(shardDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(disk) != 1 || disk[0] != qerr.Records[0] {
		t.Fatalf("quarantine.jsonl = %+v, want %+v", disk, qerr.Records)
	}

	// Every healthy unit still completed despite the poison one.
	p := res.Progress
	if p.Quarantined != 1 || p.Done != p.Units-1 {
		t.Fatalf("progress = %+v, want all but the poison unit done", p)
	}
}

func TestShardedPipelineKillAndResumeByteIdentical(t *testing.T) {
	want := writeSeqBaseline(t, Config{Seed: 1})
	shardDir := t.TempDir()

	// First attempt: cancel the campaign after 3 completed units — a
	// whole-process kill at a unit boundary.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := ShardOptions{
		Workers: 4,
		Dir:     shardDir,
		Sleep:   noSleep,
		UnitDone: func(completed int) {
			if completed == 3 {
				cancel()
			}
		},
	}
	res, err := ShardedPipeline(Config{Seed: 1, Context: ctx}, opts, testNames)
	if err == nil {
		t.Fatal("interrupted sharded campaign returned no error")
	}
	if !checkpoint.IsCanceled(err) {
		t.Fatalf("interrupted err = %v, want cancellation", err)
	}
	if res == nil || res.Progress.Done < 3 {
		t.Fatalf("interruption lost completed units: %+v", res)
	}

	// Resume in the same shard directory: completed units are journal
	// hits, the rest run, and the merge reproduces the sequential bytes.
	opts.UnitDone = nil
	res2, err := ShardedPipeline(Config{Seed: 1}, opts, testNames)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "resumed")
	if err := res2.Artifacts.Write(dir); err != nil {
		t.Fatal(err)
	}
	assertSameArtifacts(t, want, readArtifacts(t, dir))
}

func TestShardedEvaluateReplicationsMatchSequential(t *testing.T) {
	cfg := Config{Seed: 1, Replications: 3}
	want, err := Replicate(cfg, testNames, nil)
	if err != nil {
		t.Fatal(err)
	}

	res, err := ShardedEvaluate(cfg, ShardOptions{Workers: 6, Sleep: noSleep}, testNames)
	if err != nil {
		t.Fatal(err)
	}
	if res.Artifacts == nil || res.Artifacts.Replications == nil {
		t.Fatal("sharded evaluate produced no replication summary")
	}
	got := res.Artifacts.Replications
	wj, err := marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	gj, err := marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wj, gj) {
		t.Fatalf("sharded replication summary differs:\n%s\nvs sequential:\n%s", gj, wj)
	}
	if got.Replications != 3 || len(got.Seeds) != 3 || got.Seeds[0] != 1 {
		t.Fatalf("replication metadata = %+v", got)
	}
	for _, p := range got.Platforms {
		if p.Average.StdDev < 0 || p.Average.CI95 < 0 {
			t.Fatalf("negative dispersion in %+v", p)
		}
	}
}

func TestShardedCampaignMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	_, err := ShardedPipeline(Config{Seed: 1, Registry: reg}, ShardOptions{Workers: 2, Sleep: noSleep}, testNames)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"memcontention_campaign_units",
		"memcontention_campaign_units_done",
		"memcontention_campaign_shard_units_done",
		"memcontention_campaign_shard_units_pending",
		"memcontention_campaign_units_quarantined_total",
		"memcontention_campaign_worker_restarts_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %s", want)
		}
	}
}

func TestHomeShardStableAndInRange(t *testing.T) {
	keys := []string{"eval|a", "eval|b", "unit|netbench|henri", "xcheck|henri"}
	for _, k := range keys {
		s := homeShard(k, 8)
		if s < 0 || s >= 8 {
			t.Fatalf("homeShard(%q, 8) = %d", k, s)
		}
		if s != homeShard(k, 8) {
			t.Fatalf("homeShard(%q) not deterministic", k)
		}
	}
	if homeShard("anything", 1) != 0 {
		t.Fatal("single shard must own every unit")
	}
}

func TestProgressReportString(t *testing.T) {
	p := ProgressReport{
		Units: 5, Done: 3, Quarantined: 1, Restarts: 2,
		Shards: []ShardProgress{
			{Shard: 0, Done: 2, Pending: 0, Quarantined: 1},
			{Shard: 1, Done: 1, Pending: 1, Quarantined: 0},
		},
	}
	s := p.String()
	for _, want := range []string{"3/5 units done", "1 quarantined", "2 restarts", "shard 0: 2 done", "shard 1: 1 done, 1 pending"} {
		if !strings.Contains(s, want) {
			t.Errorf("ProgressReport.String() = %q, missing %q", s, want)
		}
	}
}

func TestReadQuarantineMissingAndMalformed(t *testing.T) {
	dir := t.TempDir()
	recs, err := ReadQuarantine(dir)
	if err != nil || recs != nil {
		t.Fatalf("missing quarantine file: recs=%v err=%v", recs, err)
	}
	path := filepath.Join(dir, QuarantineFile)
	if err := os.WriteFile(path, []byte("{not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadQuarantine(dir); err == nil {
		t.Fatal("malformed quarantine line accepted")
	}
}
