package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"memcontention/internal/campaign"
	"memcontention/internal/checkpoint"
	"memcontention/internal/eval"
	"memcontention/internal/export"
	"memcontention/internal/obs"
)

// campaignSeeds is the replication count of one campaign: every Table I
// platform at campaignSeeds consecutive seeds.
const campaignSeeds = 10

// campaignWL runs the same evaluations as paper through the crash-safe
// path, cycle after cycle: (a) a cold journaled campaign on a fresh
// journal, (b) a resume of it on the completed journal, (c) the sharded
// executor on two workers into a fresh shard directory.
type campaignWL struct {
	names []string
	seeds []uint64
	reg   *obs.Registry
	dir   string
	want  []byte // the unjournaled result, the reference for every path
	cycle int
}

func (c *campaignWL) setup(r *run) error {
	c.close()
	c.names = campaign.TestbedNames()
	c.seeds = c.seeds[:0]
	for i := 0; i < campaignSeeds; i++ {
		c.seeds = append(c.seeds, r.seed*seedBlock+2+uint64(i))
	}
	c.reg = obs.NewRegistry()
	dir, err := r.scratch("campaign")
	if err != nil {
		return err
	}
	c.dir = dir
	// A fresh journal and one journaled seed, all platforms, at a seed
	// never measured.
	j, err := checkpoint.Open(filepath.Join(dir, "setup.ckpt"))
	if err != nil {
		return err
	}
	j.SetRegistry(c.reg)
	_, err = campaign.EvaluatePlatforms(campaign.Config{Seed: r.seed*seedBlock + 1, Workers: 1, Journal: j, Registry: c.reg}, c.names)
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	return err
}

// encode renders a campaign result the way the artifacts store it.
func encode(base []*eval.PlatformResult, rep *campaign.ReplicationSummary) ([]byte, error) {
	var buf bytes.Buffer
	if err := export.WriteJSON(&buf, base); err != nil {
		return nil, err
	}
	if err := export.WriteJSON(&buf, rep); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// reference computes the campaign's result without a journal: the
// paper path for the same seeds.
func (c *campaignWL) reference() error {
	cfg := campaign.Config{Seed: c.seeds[0], Workers: 1, Replications: len(c.seeds)}
	base, err := campaign.EvaluatePlatforms(cfg, c.names)
	if err != nil {
		return err
	}
	rep, err := campaign.Replicate(cfg, c.names, base)
	if err != nil {
		return err
	}
	c.want, err = encode(base, rep)
	return err
}

func (c *campaignWL) check(r *run, what string, base []*eval.PlatformResult, rep *campaign.ReplicationSummary) {
	got, err := encode(base, rep)
	if err != nil || !bytes.Equal(got, c.want) {
		r.problem("campaign: %s result differs from the unjournaled campaign (err=%v)", what, err)
	}
}

// cold runs one journaled campaign on a fresh journal, one call per
// seed so that each seed is timed, then the replication summary. It
// returns the journal path and the seeds completed.
func (c *campaignWL) cold(r *run, tr *tracer, op int, lat *[]float64) (string, int, error) {
	c.cycle++
	path := filepath.Join(c.dir, fmt.Sprintf("cold-%d.ckpt", c.cycle))
	j, err := checkpoint.Open(path)
	if err != nil {
		return "", 0, err
	}
	j.SetRegistry(c.reg)
	cfg := campaign.Config{Seed: c.seeds[0], Workers: 1, Journal: j, Registry: c.reg, Replications: len(c.seeds)}
	var base []*eval.PlatformResult
	done := 0
	for _, seed := range c.seeds {
		scfg := cfg
		scfg.Seed = seed
		t := time.Now()
		var res []*eval.PlatformResult
		err := tr.do("op.campaign.EvaluatePlatforms[journal]", op, 0, func(int) error {
			var err error
			res, err = campaign.EvaluatePlatforms(scfg, c.names)
			return err
		})
		if lat != nil {
			*lat = append(*lat, msSince(t))
		}
		if !r.op(err) {
			continue
		}
		done++
		if seed == c.seeds[0] {
			base = res
		}
	}
	rep, err := campaign.Replicate(cfg, c.names, base)
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	if r.op(err) && lat != nil {
		c.check(r, "cold journaled", base, rep)
	}
	return path, done, nil
}

// resume re-runs the campaign on a completed journal: every unit is a
// journal hit.
func (c *campaignWL) resume(r *run, path string) error {
	j, err := checkpoint.Open(path)
	if err != nil {
		return err
	}
	j.SetRegistry(c.reg)
	cfg := campaign.Config{Seed: c.seeds[0], Workers: 1, Journal: j, Registry: c.reg, Replications: len(c.seeds)}
	base, err := campaign.EvaluatePlatforms(cfg, c.names)
	var rep *campaign.ReplicationSummary
	if err == nil {
		rep, err = campaign.Replicate(cfg, c.names, base)
	}
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	if r.op(err) {
		c.check(r, "resumed", base, rep)
	}
	return nil
}

// sharded runs the campaign on the supervised executor with two
// workers, merge and assembly included.
func (c *campaignWL) sharded(r *run) (int, error) {
	dir := filepath.Join(c.dir, fmt.Sprintf("shards-%d", c.cycle))
	res, err := campaign.ShardedEvaluate(
		campaign.Config{Seed: c.seeds[0], Registry: c.reg, Replications: len(c.seeds)},
		campaign.ShardOptions{Workers: 2, Dir: dir}, c.names)
	if !r.op(err) {
		return 0, nil
	}
	var rep *campaign.ReplicationSummary
	if res.Artifacts != nil {
		rep = res.Artifacts.Replications
	}
	c.check(r, "sharded", res.Platforms, rep)
	return len(c.seeds), os.RemoveAll(dir)
}

func (c *campaignWL) measure(r *run) error {
	if err := c.reference(); err != nil {
		return fmt.Errorf("reference campaign: %w", err)
	}
	var lat [][]float64
	var alloc allocMeter
	var cold, shard rates
	var resumeTime time.Duration
	cycles := 0
	start := time.Now()
	for cycles == 0 || time.Since(start) < r.budget(1) {
		alloc.begin()
		t := time.Now()
		lat = append(lat, nil)
		path, seeds, err := c.cold(r, nil, 0, &lat[cycles])
		cold.add(seeds, float64(seeds)/time.Since(t).Seconds(), 1)
		alloc.end()
		if err != nil {
			return err
		}

		t = time.Now()
		if err := c.resume(r, path); err != nil {
			return err
		}
		resumeTime += time.Since(t)
		if err := os.Remove(path); err != nil {
			return err
		}

		t = time.Now()
		seeds, err = c.sharded(r)
		shard.add(seeds, float64(seeds)/time.Since(t).Seconds(), 1)
		if err != nil {
			return err
		}
		cycles++
	}
	r.add(mOps, cold.median(), unitRate, cold.note(fmt.Sprintf("seeds/s (%d units each), cold journaled, fsync per record, one block per cycle of %d seeds", len(c.names), len(c.seeds))))
	r.latencies(lat, 0.9, "journaled seed")
	r.add(mParOps, shard.median(), unitRate, shard.note("seeds/s, sharded executor, 2 workers, merge included"))
	r.allocPerOp(alloc, cold.ops)
	r.note("campaign: resuming a completed campaign took %.4f s on average over %d cycles", resumeTime.Seconds()/float64(cycles), cycles)
	return nil
}

func (c *campaignWL) loop(r *run, tr *tracer, d time.Duration) (int, error) {
	start := time.Now()
	n := 0
	for time.Since(start) < d {
		path, seeds, err := c.cold(r, tr, tr.newOp(), nil)
		if err != nil {
			return n, err
		}
		n += seeds
		if err := os.Remove(path); err != nil {
			return n, err
		}
	}
	return n, nil
}

func (c *campaignWL) close() {
	if c.dir != "" {
		os.RemoveAll(c.dir)
		c.dir = ""
	}
}
