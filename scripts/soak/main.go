// Command soak is the kill-and-resume soak harness for the checkpoint
// layer (docs/resilience.md): it runs the full Table II pipeline, kills
// it at seeded-random unit boundaries, resumes from the journal, and
// asserts that the final artifacts are byte-identical to an uninterrupted
// run — with and without a fault plan armed on the DES cross-check, plus
// a torn-tail and a corrupt-journal round that must recover without
// panicking.
//
// Kills are simulated in-process by canceling the campaign context from
// the journal's RecordHook: because every append is fsynced before the
// hook runs, cancel-after-record is exactly the on-disk state a SIGKILL
// after the fsync would leave. The torn-tail round additionally chops
// bytes off the journal to model a kill mid-write.
//
// With -parallel the harness additionally soaks the in-process sharded
// executor (docs/campaigns.md): it kills random workers mid-shard (the
// pool must restart them, and each restarted worker re-claims its own
// lease and runs the unit it was killed before), kills the whole
// parallel campaign at unit boundaries and resumes it from the shard
// journals, and poisons a unit to prove it lands in quarantine.jsonl —
// asserting after every phase that the artifacts are byte-identical to
// the sequential baseline.
//
// With -remote the harness instead soaks the lease-coordinated
// multi-process campaign with real memworker processes and real signals
// (SIGKILL, SIGSTOP/SIGCONT) — see remote.go.
//
// Usage: go run ./scripts/soak [-rounds 6] [-seed 1] [-parallel|-remote] [-v]
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"memcontention/internal/campaign"
	"memcontention/internal/checkpoint"
	"memcontention/internal/faults"
	"memcontention/internal/rng"
)

// platforms keeps a soak run fast while covering sample and non-sample
// placements plus two different NUMA layouts.
var platforms = []string{"henri", "henri-subnuma", "dahu"}

var verbose bool

func logf(format string, args ...any) {
	if verbose {
		fmt.Printf(format+"\n", args...)
	}
}

func main() {
	rounds := flag.Int("rounds", 6, "minimum interruptions per scenario")
	seed := flag.Uint64("seed", 1, "seed for the kill points and the campaign noise")
	parallel := flag.Bool("parallel", false, "soak the in-process sharded executor instead of the sequential pipeline")
	remote := flag.Bool("remote", false, "soak the lease-coordinated multi-process campaign (real memworker processes and signals)")
	flag.BoolVar(&verbose, "v", false, "log every kill and resume")
	flag.Parse()

	var err error
	switch {
	case *remote:
		err = soakRemote(*seed)
	case *parallel:
		err = soakParallel(*rounds, *seed)
	default:
		err = soak(*rounds, *seed)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "soak: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("soak: PASS")
}

func soak(rounds int, seed uint64) error {
	scenarios := []struct {
		name string
		plan *faults.Plan
	}{
		{"no-faults", nil},
		{"faults", &faults.Plan{
			Seed: 7,
			Events: []faults.Event{
				{At: 0.001, Kind: faults.LinkDegrade, Factor: 0.5, Duration: 0.01},
				{At: 0.002, Kind: faults.MsgDelay, Extra: 0.001, Probability: 0.5, Duration: 0.05},
			},
		}},
	}
	for _, sc := range scenarios {
		if err := soakScenario(sc.name, sc.plan, rounds, seed); err != nil {
			return fmt.Errorf("scenario %s: %w", sc.name, err)
		}
	}
	return nil
}

func soakScenario(name string, plan *faults.Plan, rounds int, seed uint64) error {
	dir, err := os.MkdirTemp("", "memcontention-soak-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// Uninterrupted baseline.
	baseline, err := campaign.Pipeline(campaign.Config{Seed: seed, FaultPlan: plan}, platforms)
	if err != nil {
		return fmt.Errorf("baseline pipeline: %w", err)
	}
	baseDir := filepath.Join(dir, "baseline")
	if err := baseline.Write(baseDir); err != nil {
		return err
	}

	// Kill-and-resume loop: keep interrupting at seeded unit boundaries
	// until the pipeline completes, with at least `rounds` kills. Two of
	// the kills additionally corrupt the journal tail (torn write, then
	// garbage) before the resume, which must recover cleanly.
	jpath := filepath.Join(dir, "run.ckpt")
	kills := 0
	killPoints := rng.New(seed, "soak|"+name)
	var resumed *campaign.Artifacts
	for attempt := 0; ; attempt++ {
		if attempt > 10*rounds+100 {
			return fmt.Errorf("pipeline did not complete after %d attempts", attempt)
		}
		j, err := checkpoint.Open(jpath)
		if err != nil {
			return fmt.Errorf("attempt %d: reopen journal: %w", attempt, err)
		}
		if j.RecoveredBytes() > 0 {
			logf("  [%s] attempt %d: recovered journal, truncated %d corrupt bytes, %d entries intact",
				name, attempt, j.RecoveredBytes(), j.LoadedEntries())
		}
		ctx, cancel := context.WithCancel(context.Background())
		if kills < rounds {
			// Cancel 1–3 freshly recorded units past what the journal
			// already holds, so every attempt makes progress and dies.
			killAt := j.LoadedEntries() + 1 + killPoints.Intn(3)
			j.RecordHook = func(_ string, total int) {
				if total >= killAt {
					cancel()
				}
			}
		}
		resumed, err = campaign.Pipeline(campaign.Config{
			Seed:      seed,
			Context:   ctx,
			Journal:   j,
			FaultPlan: plan,
		}, platforms)
		cancel()
		entries := j.Len()
		if cerr := j.Close(); cerr != nil {
			return cerr
		}
		if err == nil {
			logf("  [%s] attempt %d: completed with %d journal entries after %d kills",
				name, attempt, entries, kills)
			break
		}
		if !checkpoint.IsCanceled(err) {
			return fmt.Errorf("attempt %d: pipeline failed mid-soak: %w", attempt, err)
		}
		kills++
		logf("  [%s] attempt %d: killed at %d journal entries", name, attempt, entries)
		switch kills {
		case 2:
			// Torn tail: the process died mid-append.
			if err := chopFile(jpath, 7); err != nil {
				return err
			}
			logf("  [%s] tore the journal tail", name)
		case 4:
			// Garbage tail: the disk wrote junk past the valid prefix.
			if err := appendFile(jpath, []byte("XXXX corrupt entry\nmore junk")); err != nil {
				return err
			}
			logf("  [%s] appended garbage to the journal", name)
		}
	}
	if kills < rounds {
		return fmt.Errorf("only %d kills, want >= %d", kills, rounds)
	}

	// The resumed artifacts must be byte-identical to the baseline.
	resDir := filepath.Join(dir, "resumed")
	if err := resumed.Write(resDir); err != nil {
		return err
	}
	if err := compareDirs(baseDir, resDir); err != nil {
		return err
	}
	fmt.Printf("soak: %s ok — %d kills (incl. torn + corrupt journal), artifacts byte-identical\n", name, kills)
	return nil
}

// soakParallel soaks the in-process sharded executor in three phases,
// each checked byte for byte against the sequential baseline:
//
//  1. worker churn — random workers are killed mid-shard at least
//     `rounds` times; the pool restarts each one, which re-claims its
//     lease and runs the unit it was killed before,
//  2. whole-campaign kills — the parallel campaign is canceled at unit
//     boundaries and resumed from its shard journals until it completes,
//     with at least `rounds` kills,
//  3. poison quarantine — one unit fails every attempt, must land in
//     quarantine.jsonl, and the campaign must recover completely once
//     the poison clears.
func soakParallel(rounds int, seed uint64) error {
	dir, err := os.MkdirTemp("", "memcontention-soak-parallel-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	baseline, err := campaign.Pipeline(campaign.Config{Seed: seed}, platforms)
	if err != nil {
		return fmt.Errorf("baseline pipeline: %w", err)
	}
	baseDir := filepath.Join(dir, "baseline")
	if err := baseline.Write(baseDir); err != nil {
		return err
	}
	const workers = 4

	// Phase 1: worker churn. Each campaign run kills workers at seeded
	// random unit starts (the stream is guarded — workers consult the
	// hook concurrently); runs repeat on fresh shard sets until at least
	// `rounds` kills have been absorbed, every run byte-checked.
	var mu sync.Mutex
	killPoints := rng.New(seed, "soak|parallel|workers")
	kills, restarts := 0, 0
	for attempt := 0; kills < rounds; attempt++ {
		if attempt > 10*rounds+100 {
			return fmt.Errorf("only %d worker kills after %d campaigns, want >= %d", kills, attempt, rounds)
		}
		res, err := campaign.ShardedPipeline(campaign.Config{Seed: seed}, campaign.ShardOptions{
			Workers: workers,
			Dir:     filepath.Join(dir, fmt.Sprintf("churn-%d.shards", attempt)),
			KillHook: func(shard int, key string) bool {
				mu.Lock()
				defer mu.Unlock()
				if kills < rounds && killPoints.Intn(2) == 0 {
					kills++
					logf("  [parallel] kill %d: worker %d holding %s", kills, shard, key)
					return true
				}
				return false
			},
		}, platforms)
		if err != nil {
			return fmt.Errorf("worker-churn campaign %d: %w", attempt, err)
		}
		restarts += res.Progress.Restarts
		churnDir := filepath.Join(dir, fmt.Sprintf("churn-%d", attempt))
		if err := res.Artifacts.Write(churnDir); err != nil {
			return err
		}
		if err := compareDirs(baseDir, churnDir); err != nil {
			return fmt.Errorf("worker churn campaign %d: %w", attempt, err)
		}
	}
	if restarts < rounds {
		return fmt.Errorf("only %d worker restarts for %d kills", restarts, kills)
	}
	fmt.Printf("soak: parallel worker churn ok — %d kills, %d restarts, artifacts byte-identical\n",
		kills, restarts)

	// Phase 2: whole-campaign kill-and-resume over persistent shard
	// sets. One sequence = kill the parallel campaign at seeded unit
	// boundaries and resume from the same shard directory until it
	// completes; sequences repeat on fresh shard sets until at least
	// `rounds` whole-campaign kills have been soaked, each completed
	// sequence byte-checked.
	campaignKills := 0
	boundaryPoints := rng.New(seed, "soak|parallel|campaign")
	for sequence := 0; campaignKills < rounds; sequence++ {
		if sequence > 10*rounds+100 {
			return fmt.Errorf("only %d campaign kills after %d sequences, want >= %d", campaignKills, sequence, rounds)
		}
		shardDir := filepath.Join(dir, fmt.Sprintf("resume-%d.shards", sequence))
		var final *campaign.ShardResult
		for attempt := 0; ; attempt++ {
			if attempt > 10*rounds+100 {
				return fmt.Errorf("parallel campaign did not complete after %d attempts", attempt)
			}
			ctx, cancel := context.WithCancel(context.Background())
			opts := campaign.ShardOptions{Workers: workers, Dir: shardDir}
			if campaignKills < rounds {
				done := 0
				killAfter := 1 + boundaryPoints.Intn(3)
				opts.UnitDone = func(completed int) {
					mu.Lock()
					defer mu.Unlock()
					done++
					if done >= killAfter {
						cancel()
					}
				}
			}
			final, err = campaign.ShardedPipeline(campaign.Config{Seed: seed, Context: ctx}, opts, platforms)
			cancel()
			if err == nil {
				logf("  [parallel] sequence %d attempt %d: completed (%d campaign kills so far)",
					sequence, attempt, campaignKills)
				break
			}
			if !checkpoint.IsCanceled(err) {
				return fmt.Errorf("attempt %d: parallel campaign failed mid-soak: %w", attempt, err)
			}
			campaignKills++
			logf("  [parallel] sequence %d attempt %d: campaign killed with %d/%d units done",
				sequence, attempt, final.Progress.Done, final.Progress.Units)
		}
		resumeDir := filepath.Join(dir, fmt.Sprintf("resume-%d", sequence))
		if err := final.Artifacts.Write(resumeDir); err != nil {
			return err
		}
		if err := compareDirs(baseDir, resumeDir); err != nil {
			return fmt.Errorf("campaign kill-and-resume sequence %d: %w", sequence, err)
		}
	}
	fmt.Printf("soak: parallel kill-and-resume ok — %d campaign kills, artifacts byte-identical\n", campaignKills)

	// Phase 3: poison quarantine, then recovery after the poison clears.
	poisonDir := filepath.Join(dir, "poison.shards")
	poisoned := ""
	_, err = campaign.ShardedPipeline(campaign.Config{Seed: seed}, campaign.ShardOptions{
		Workers:     workers,
		Dir:         poisonDir,
		MaxAttempts: 2,
		FaultHook: func(key string, attempt int) error {
			mu.Lock()
			defer mu.Unlock()
			if poisoned == "" {
				poisoned = key
			}
			if key == poisoned {
				return errors.New("soak: injected poison")
			}
			return nil
		},
	}, platforms)
	var qerr *campaign.QuarantineError
	if !errors.As(err, &qerr) {
		return fmt.Errorf("poisoned campaign should quarantine, got: %w", err)
	}
	if len(qerr.Records) != 1 || qerr.Records[0].Key != poisoned {
		return fmt.Errorf("quarantine = %+v, want exactly %q", qerr.Records, poisoned)
	}
	disk, err := campaign.ReadQuarantine(poisonDir)
	if err != nil {
		return fmt.Errorf("read quarantine report: %w", err)
	}
	if len(disk) != 1 || disk[0].Key != poisoned {
		return fmt.Errorf("quarantine.jsonl = %+v, want %q", disk, poisoned)
	}
	logf("  [parallel] quarantined %s after %d attempts", disk[0].Key, disk[0].Attempts)
	// Poison cleared: the same shard set resumes and completes fully.
	cured, err := campaign.ShardedPipeline(campaign.Config{Seed: seed}, campaign.ShardOptions{
		Workers: workers,
		Dir:     poisonDir,
	}, platforms)
	if err != nil {
		return fmt.Errorf("recovery after quarantine: %w", err)
	}
	curedDir := filepath.Join(dir, "cured")
	if err := cured.Artifacts.Write(curedDir); err != nil {
		return err
	}
	if err := compareDirs(baseDir, curedDir); err != nil {
		return fmt.Errorf("post-quarantine recovery: %w", err)
	}
	fmt.Printf("soak: parallel quarantine ok — %s isolated in quarantine.jsonl, recovery byte-identical\n", poisoned)
	return nil
}

// chopFile truncates the last n bytes off path (at most its size).
func chopFile(path string, n int64) error {
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	size := st.Size() - n
	if size < 0 {
		size = 0
	}
	return os.Truncate(path, size)
}

func appendFile(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// compareDirs asserts both directories hold the same files with the same
// bytes.
func compareDirs(wantDir, gotDir string) error {
	entries, err := os.ReadDir(wantDir)
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		return errors.New("baseline produced no artifacts")
	}
	for _, e := range entries {
		want, err := os.ReadFile(filepath.Join(wantDir, e.Name()))
		if err != nil {
			return err
		}
		got, err := os.ReadFile(filepath.Join(gotDir, e.Name()))
		if err != nil {
			return fmt.Errorf("resumed run missing artifact %s: %w", e.Name(), err)
		}
		if !bytes.Equal(want, got) {
			return fmt.Errorf("artifact %s differs between baseline and resumed run", e.Name())
		}
	}
	return nil
}
