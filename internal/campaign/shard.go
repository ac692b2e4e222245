package campaign

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"

	"memcontention/internal/bench"
	"memcontention/internal/checkpoint"
	"memcontention/internal/topology"
)

// unit is one schedulable experiment unit of a sharded campaign. Units
// are config-keyed: Key condenses everything that determines the unit's
// result, it doubles as the journal key the unit records under, and it
// hashes to the unit's deterministic home shard. run executes the unit
// against the worker's Config (shard journal attached) and must record
// Key in cfg.Journal before returning nil — the executor verifies this,
// so a completed unit can never silently vanish from the merge.
type unit struct {
	Key string
	run func(cfg Config) error
}

// homeShard assigns a unit to its deterministic home shard: an FNV-64a
// hash of the key modulo the shard count. The assignment depends only on
// (key, shards), so a resumed campaign with the same worker count lands
// every unit on the shard already holding its partial nested records.
func homeShard(key string, shards int) int {
	h := fnv.New64a()
	h.Write([]byte(key))
	return int(h.Sum64() % uint64(shards))
}

// byHomeShard groups units by home shard, each group in enumeration
// order.
func byHomeShard(units []unit, shards int) [][]unit {
	out := make([][]unit, shards)
	for _, u := range units {
		s := homeShard(u.Key, shards)
		out[s] = append(out[s], u)
	}
	return out
}

// journaled merges every shard journal file in dir — all shards and
// all epochs, dead ones and plain epoch-less files included — read
// tolerantly and without creating anything, so the fleet monitor can
// point it at a live campaign. A unit counts as done wherever it was
// journaled. A merge conflict means journal corruption or a
// nondeterminism bug and fails loudly.
func journaled(dir string) ([]checkpoint.Entry, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("campaign: shard scan %s: %w", dir, err)
	}
	var paths []string
	for _, e := range entries {
		if _, _, ok := checkpoint.ParseShardFile(e.Name()); ok && !e.IsDir() {
			paths = append(paths, filepath.Join(dir, e.Name()))
		}
	}
	return checkpoint.MergeShardFiles(paths)
}

// journaledKeys is the key set of journaled(dir).
func journaledKeys(dir string) (map[string]bool, error) {
	entries, err := journaled(dir)
	if err != nil {
		return nil, err
	}
	keys := make(map[string]bool, len(entries))
	for _, e := range entries {
		keys[e.Key] = true
	}
	return keys, nil
}

// tally counts units by home shard: done when journaled, quarantined
// when quar names them, pending otherwise.
func tally(units []unit, shards int, done map[string]bool, quar []QuarantineRecord) ProgressReport {
	poisoned := make(map[string]bool, len(quar))
	for _, q := range quar {
		poisoned[q.Key] = true
	}
	p := ProgressReport{Units: len(units), Shards: make([]ShardProgress, shards)}
	for i := range p.Shards {
		p.Shards[i].Shard = i
	}
	for _, u := range units {
		sp := &p.Shards[homeShard(u.Key, shards)]
		switch {
		case done[u.Key]:
			sp.Done++
			p.Done++
		case poisoned[u.Key]:
			sp.Quarantined++
			p.Quarantined++
		default:
			sp.Pending++
		}
	}
	return p
}

// evalUnit builds the platform-evaluation unit for one (platform, seed):
// the full §IV evaluation whose nested placement curves journal
// individually under the same shard journal.
func evalUnit(cfg Config, name string, seed uint64) (unit, error) {
	plat, err := topology.ByName(name)
	if err != nil {
		return unit{}, err
	}
	runner, err := bench.NewRunner(bench.Config{Platform: plat, Seed: seed})
	if err != nil {
		return unit{}, err
	}
	return unit{
		Key: "eval|" + runner.Scope(),
		run: func(wcfg Config) error {
			wcfg.Seed = seed
			_, err := evaluateOne(wcfg, name)
			return err
		},
	}, nil
}

// netbenchUnit builds the ping-pong sweep unit. The per-size points
// journal individually inside the driver; the marker entry recorded
// under the unit key makes sweep completion visible to the executor
// and the merge.
func netbenchUnit(names []string) unit {
	key := "unit|netbench|" + names[0]
	return unit{
		Key: key,
		run: func(wcfg Config) error {
			points, err := Netbench(wcfg, names[0])
			if err != nil {
				return err
			}
			if err := wcfg.Journal.Record(key, len(points)); err != nil {
				return fmt.Errorf("campaign: journal %s: %w", key, err)
			}
			return nil
		},
	}
}

// crossCheckUnit builds the DES overlap cross-check unit.
func crossCheckUnit(cfg Config, names []string) unit {
	return unit{
		Key: crossCheckKey(cfg, names[0]),
		run: func(wcfg Config) error {
			_, err := CrossCheck(wcfg, names[0])
			return err
		},
	}
}

// evalUnits enumerates the evaluation units of a campaign in
// deterministic order: every platform at the base seed, then — when
// cfg.Replications > 1 — every platform again at each replication seed
// (base+1, base+2, ...). The base-seed evaluations double as replication
// 0, so a replicated campaign never measures the base seed twice.
func evalUnits(cfg Config, names []string) ([]unit, error) {
	var units []unit
	for _, name := range names {
		u, err := evalUnit(cfg, name, cfg.Seed)
		if err != nil {
			return nil, err
		}
		units = append(units, u)
	}
	for _, seed := range replicationSeeds(cfg)[1:] {
		for _, name := range names {
			u, err := evalUnit(cfg, name, seed)
			if err != nil {
				return nil, err
			}
			units = append(units, u)
		}
	}
	return units, nil
}

// pipelineUnits enumerates the full Table II pipeline as units: all
// evaluations (replications included), the network sweep and the DES
// cross-check.
func pipelineUnits(cfg Config, names []string) ([]unit, error) {
	units, err := evalUnits(cfg, names)
	if err != nil {
		return nil, err
	}
	units = append(units, netbenchUnit(names), crossCheckUnit(cfg, names))
	return units, nil
}
