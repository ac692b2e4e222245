package campaign

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"memcontention/internal/checkpoint"
	"memcontention/internal/obs"
)

// writeArtifacts writes a sharded run's artifacts and returns their bytes.
func writeArtifacts(t *testing.T, res *ShardResult) map[string][]byte {
	t.Helper()
	if res == nil || res.Artifacts == nil {
		t.Fatal("sharded run produced no artifacts")
	}
	dir := filepath.Join(t.TempDir(), "sharded")
	if err := res.Artifacts.Write(dir); err != nil {
		t.Fatal(err)
	}
	return readArtifacts(t, dir)
}

// openFilesUnder lists this process's open file descriptors that point
// into dir (nil where /proc/self/fd is unavailable).
func openFilesUnder(t *testing.T, dir string) []string {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return nil
	}
	var open []string
	for _, fd := range fds {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name()))
		if err == nil && strings.HasPrefix(target, dir) {
			open = append(open, target)
		}
	}
	return open
}

// TestShardedKillRecoveryNeedsNoTTL kills workers under a frozen clock:
// a killed worker's lease never goes stale, so the run can only finish
// if the restarted worker re-claims its own live lease. The context
// deadline turns a wait on the TTL into a failure instead of a hang.
func TestShardedKillRecoveryNeedsNoTTL(t *testing.T) {
	want := writeSeqBaseline(t, Config{Seed: 1})
	goroutines := runtime.NumGoroutine()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	dir := filepath.Join(t.TempDir(), "campaign")
	clk := newRemoteClock() // never advanced
	var kills atomic.Int32
	res, err := ShardedPipeline(Config{Seed: 1, Context: ctx}, ShardOptions{
		Workers: 2,
		Dir:     dir,
		Sleep:   noSleep,
		Clock:   clk.Now,
		KillHook: func(shard int, key string) bool {
			return kills.Add(1) <= 3
		},
	}, testNames)
	if err != nil {
		t.Fatal(err)
	}
	// Every kill is one restart, and the restarted workers themselves
	// ran every unit.
	if p := res.Progress; p.Restarts != 3 || p.Done != p.Units {
		t.Fatalf("progress %+v, want 3 restarts and every unit done", p)
	}
	if len(res.Quarantine) != 0 {
		t.Fatalf("kills charged attempts: %+v", res.Quarantine)
	}
	assertSameArtifacts(t, want, writeArtifacts(t, res))

	// A kill leaks neither the journal descriptor nor the heartbeat
	// goroutine of the shard it interrupted.
	if open := openFilesUnder(t, dir); len(open) != 0 {
		t.Fatalf("files left open after the run: %v", open)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Fatalf("%d goroutines after the run, %d before", n, goroutines)
	}
}

// TestShardedUnitPanicChargesOneAttempt makes one unit panic on its
// first attempt. The retry loop must recover the panic, charge exactly
// that one attempt, and complete the unit on the next one.
func TestShardedUnitPanicChargesOneAttempt(t *testing.T) {
	want := writeSeqBaseline(t, Config{Seed: 1})

	var panicked atomic.Bool
	var victim string
	enumerate := func(cfg Config, names []string) ([]unit, error) {
		units, err := pipelineUnits(cfg, names)
		if err != nil {
			return nil, err
		}
		victim = units[0].Key
		run := units[0].run
		units[0].run = func(wcfg Config) error {
			if panicked.CompareAndSwap(false, true) {
				panic("injected unit panic")
			}
			return run(wcfg)
		}
		return units, nil
	}
	var mu sync.Mutex
	var attempts []int
	reg := obs.NewRegistry()
	res, err := shardedRun(Config{Seed: 1, Registry: reg}, ShardOptions{
		Workers:     2,
		MaxAttempts: 2,
		Sleep:       noSleep,
		FaultHook: func(key string, attempt int) error {
			if key == victim {
				mu.Lock()
				attempts = append(attempts, attempt)
				mu.Unlock()
			}
			return nil
		},
	}, testNames, enumerate, func(mcfg Config, names []string, res *ShardResult) error {
		art, err := Pipeline(mcfg, names)
		res.Artifacts = art
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if !panicked.Load() {
		t.Fatal("the injected panic never fired")
	}
	if fmt.Sprint(attempts) != "[1 2]" {
		t.Fatalf("attempts of the panicking unit = %v, want [1 2]", attempts)
	}
	if n := count(reg, "memcontention_campaign_unit_retries_total"); n != 1 {
		t.Fatalf("retries = %v, want 1", n)
	}
	if len(res.Quarantine) != 0 || res.Progress.Restarts != 0 {
		t.Fatalf("a unit panic quarantined or restarted: %+v", res.Progress)
	}
	assertSameArtifacts(t, want, writeArtifacts(t, res))
}

// count sums the samples of one metric family.
func count(reg *obs.Registry, name string) float64 {
	total := 0.0
	for _, s := range reg.Snapshot() {
		if s.Name == name {
			total += s.Value
		}
	}
	return total
}

// TestShardedResumesLegacyLayout resumes a directory in the layout of
// the earlier work-stealing executor: plain epoch-less shard-000w.ckpt
// files, no leases, and one unit that a foreign worker stole and
// journaled in its own shard's file. Every unit counts as done wherever
// it was journaled, so the resume runs nothing.
func TestShardedResumesLegacyLayout(t *testing.T) {
	want := writeSeqBaseline(t, Config{Seed: 1})

	// Run every unit into its home shard's plain journal, as that
	// executor did — except the stolen unit, which lands in the other
	// shard's file.
	units, err := pipelineUnits(Config{Seed: 1}, testNames)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 2
	dir := filepath.Join(t.TempDir(), "legacy")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	var journals [workers]*checkpoint.Journal
	for s := range journals {
		if journals[s], err = checkpoint.Open(filepath.Join(dir, fmt.Sprintf("shard-%04d.ckpt", s))); err != nil {
			t.Fatal(err)
		}
	}
	for i, u := range units {
		s := homeShard(u.Key, workers)
		if i == 0 {
			s = 1 - s // stolen
		}
		wcfg := Config{Seed: 1, Workers: 1, Journal: journals[s]}.withDefaults()
		if err := u.run(wcfg); err != nil {
			t.Fatal(err)
		}
	}
	for _, j := range journals {
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}

	var runs atomic.Int32
	res, err := ShardedPipeline(Config{Seed: 1}, ShardOptions{
		Workers: workers,
		Dir:     dir,
		Sleep:   noSleep,
		FaultHook: func(key string, attempt int) error {
			runs.Add(1)
			return nil
		},
	}, testNames)
	if err != nil {
		t.Fatal(err)
	}
	if n := runs.Load(); n != 0 {
		t.Fatalf("resume of a complete legacy layout re-ran %d units", n)
	}
	if p := res.Progress; p.Done != p.Units || p.Units != len(units) {
		t.Fatalf("progress %d/%d, want all %d units done", p.Done, p.Units, len(units))
	}
	assertSameArtifacts(t, want, writeArtifacts(t, res))
}
