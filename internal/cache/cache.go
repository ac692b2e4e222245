// Package cache is the last-level-cache extension (§II-C, §VI future
// work). The paper's calibration kernel bypasses the LLC with non-temporal
// stores so that every access reaches memory; this package models what
// happens when a kernel is cache-friendly instead: part of its traffic is
// absorbed by the LLC and the demand that reaches the memory system
// shrinks by the miss ratio.
//
// The miss-ratio model is deliberately simple (the paper explicitly
// declares cache modelling out of scope [2,3]): compulsory misses under a
// fitting working set, capacity misses growing with the overflow ratio
// beyond it. It is enough to study how contention fades when kernels stop
// being memory-bound.
package cache

import (
	"fmt"

	"memcontention/internal/kernels"
	"memcontention/internal/memsys"
	"memcontention/internal/units"
)

// ColdMissRatio is the residual traffic of a fully cache-resident working
// set (compulsory misses and write-backs).
const ColdMissRatio = 0.05

// MissRatio estimates the fraction of a kernel's accesses that reach
// memory, given the working set competing for a cache share.
//
//	ws ≤ share:  ColdMissRatio
//	ws > share:  1 − share/ws·(1−ColdMissRatio)
//
// The function is continuous at ws == share and tends to 1 as the working
// set grows (streaming behaviour: everything misses).
func MissRatio(workingSet, share units.ByteSize) float64 {
	if workingSet <= 0 {
		return ColdMissRatio
	}
	if share <= 0 {
		return 1
	}
	if workingSet <= share {
		return ColdMissRatio
	}
	frac := float64(share) / float64(workingSet)
	return 1 - frac*(1-ColdMissRatio)
}

// Config describes the LLC of one socket.
type Config struct {
	// SizeMiB is the socket's last-level cache size.
	SizeMiB int
}

// Validate checks the configuration.
//
//memlint:allow unreachable — TestLLCFor and TestConfigValidate check every E12 configuration
func (c Config) Validate() error {
	if c.SizeMiB <= 0 {
		return fmt.Errorf("cache: non-positive LLC size %d MiB", c.SizeMiB)
	}
	return nil
}

// Size returns the LLC size in bytes.
func (c Config) Size() units.ByteSize { return units.ByteSize(c.SizeMiB) * units.MiB }

// DemandFactor reports how much of the kernel's memory demand survives the
// LLC when n cores share it, each touching perCoreWS of data.
// Non-temporal kernels bypass the cache entirely (factor 1, §IV-A1).
func (c Config) DemandFactor(k kernels.Kernel, n int, perCoreWS units.ByteSize) float64 {
	if k.NonTemporal {
		return 1
	}
	if n < 1 {
		n = 1
	}
	share := units.ByteSize(int64(c.Size()) / int64(n))
	return MissRatio(perCoreWS, share)
}

// FilterStreams scales compute-stream demands by the LLC factor. Comm
// streams are untouched: NIC DMA data is not reused by the cores in the
// benchmark, and DDIO effects are out of scope like the rest of the cache
// behaviour. The input slice is not modified.
//
//memlint:allow unreachable — BenchmarkExtensionCache (E12) filters streams through the LLC
func (c Config) FilterStreams(streams []memsys.Stream, k kernels.Kernel, perCoreWS units.ByteSize) []memsys.Stream {
	nCompute := 0
	for _, st := range streams {
		if st.Kind == memsys.KindCompute {
			nCompute++
		}
	}
	factor := c.DemandFactor(k, nCompute, perCoreWS)
	out := make([]memsys.Stream, len(streams))
	copy(out, streams)
	if factor == 1 {
		return out
	}
	for i := range out {
		if out[i].Kind == memsys.KindCompute {
			out[i].Demand *= factor
		}
	}
	return out
}

// LLCFor returns a plausible LLC configuration for the testbed platforms
// (per-socket sizes from public specs).
//
//memlint:allow unreachable — BenchmarkExtensionCache (E12) sizes the LLC per platform
func LLCFor(platform string) Config {
	switch platform {
	case "henri", "henri-subnuma":
		return Config{SizeMiB: 25} // Xeon Gold 6140: 24.75 MiB
	case "dahu":
		return Config{SizeMiB: 22} // Xeon Gold 6130
	case "diablo":
		return Config{SizeMiB: 128} // EPYC 7452
	case "pyxis":
		return Config{SizeMiB: 32} // ThunderX2
	case "occigen":
		return Config{SizeMiB: 35} // E5-2690v4
	default:
		return Config{SizeMiB: 32}
	}
}
