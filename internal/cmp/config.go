// Package cmp is the full-system evaluation vehicle of the DISCO paper:
// a tiled CMP (Table 2) with trace-driven cores, private L1s, a shared
// compressed NUCA L2 (one bank per tile), a directory-based MOESI-lite
// coherence protocol, one memory controller, and the cycle-accurate NoC of
// internal/noc — all clocked together. It implements the five comparison
// points of Section 4.1:
//
//	Baseline — no compression anywhere (Fig. 7 normalization base)
//	Ideal    — compressed LLC + NoC with zero conversion latency
//	          (Figs. 5/6/8 normalization base)
//	CC       — per-bank cache compression; NoC payloads uncompressed
//	CNC      — CC plus per-NI packet de/compression
//	DISCO    — compressed LLC + in-network opportunistic de/compression
package cmp

import (
	"fmt"

	"github.com/disco-sim/disco/internal/compress"
	"github.com/disco-sim/disco/internal/disco"
	"github.com/disco-sim/disco/internal/fault"
	"github.com/disco-sim/disco/internal/noc"
	"github.com/disco-sim/disco/internal/trace"
)

// Mode selects the comparison point.
type Mode int

// Comparison modes (Section 4.1).
const (
	Baseline Mode = iota
	Ideal
	CC
	CNC
	DISCO
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Baseline:
		return "baseline"
	case Ideal:
		return "ideal"
	case CC:
		return "cc"
	case CNC:
		return "cnc"
	case DISCO:
		return "disco"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// usesCompression reports whether the LLC stores compressed lines.
func (m Mode) usesCompression() bool { return m != Baseline }

// Config describes one full-system run.
type Config struct {
	// Mode is the comparison point.
	Mode Mode
	// Algorithm is the block compressor (ignored for Baseline).
	Algorithm compress.Algorithm

	// K is the mesh radix: K×K tiles, each with a core and a NUCA bank.
	K int
	// MCNode is the tile whose router hosts the memory controller.
	MCNode int
	// ExtraMCNodes optionally adds more memory controllers (Table 2 has a
	// single channel; extra MCs are a sensitivity knob). Blocks interleave
	// across all controllers; each gets its own DRAM channel.
	ExtraMCNodes []int

	// Profile is the workload: it supplies both the default per-core
	// access streams and every block's content.
	Profile trace.Profile
	// Streams optionally overrides the synthetic access streams with
	// externally recorded ones (see trace.ReadTrace / trace.Replay); one
	// per core. Block contents still come from Profile.
	Streams []trace.Stream
	// OpsPerCore is the number of measured memory references per core.
	OpsPerCore int
	// WarmupOps per core run before measurement starts (caches warm up;
	// miss latencies during warmup are not recorded).
	WarmupOps int
	// MaxCycles aborts a run that fails to finish (deadlock guard).
	MaxCycles uint64
	// Seed drives all workload randomness.
	Seed int64

	// MSHRs bounds each core's outstanding misses.
	MSHRs int
	// PrefetchDegree enables a sequential LLC prefetcher: on a demand L2
	// miss the home bank also fetches the next N blocks of its address
	// slice (0 = off, the Table 2 configuration). Prefetch fills travel
	// as ordinary memory data packets, so DISCO compresses them like any
	// other fill (the Section 1 discussion of prefetched blocks).
	PrefetchDegree int
	// L1Sets × L1Ways at 64 B lines (Table 2: 32 KB 4-way → 128×4).
	L1Sets, L1Ways int
	// BankSets × BankWays per NUCA bank (Table 2: 4 MB/16 banks, 8-way →
	// 512×8).
	BankSets, BankWays int
	// TagFactor is the compressed-cache tag multiplier (2 when the LLC
	// stores compressed lines, 1 otherwise). 0 = choose by Mode.
	TagFactor int

	// VCs / BufDepth configure the NoC (Table 2: 2 / 8).
	VCs, BufDepth int
	// FlowControl selects the NoC switching policy (Table 2: wormhole).
	// VCT/store-and-forward require BufDepth >= 9 (whole data packets).
	FlowControl noc.FlowControl
	// BankLatency is the NUCA data access time (Table 2: 4 cycles).
	BankLatency uint64
	// TagLatency is a directory/tag probe.
	TagLatency uint64

	// Disco optionally overrides the DISCO policy configuration; nil uses
	// disco.DefaultConfig(Algorithm). Only consulted in DISCO mode.
	Disco *disco.Config

	// Fault arms deterministic NoC fault injection (see internal/fault).
	// Nil or all-zero rates leave the run byte-identical to a fault-free
	// build.
	Fault *fault.Spec
	// StallWindow is the progress watchdog's no-forward-progress window in
	// cycles: if neither core retirement nor network activity advances for
	// this long the run aborts with a *StallError carrying a diagnostic
	// snapshot. 0 uses DefaultStallWindow.
	StallWindow uint64
	// SimWorkers must be 0 or 1: the NoC runs one serial two-phase
	// engine, and Validate rejects larger values.
	//
	// Deprecated: parallelize across simulations instead (simrun's -j).
	SimWorkers int
}

// DefaultConfig returns the Table 2 platform running the given profile.
func DefaultConfig(mode Mode, alg compress.Algorithm, prof trace.Profile) Config {
	return Config{
		Mode:       mode,
		Algorithm:  alg,
		K:          4,
		MCNode:     0,
		Profile:    prof,
		OpsPerCore: 12000,
		WarmupOps:  6000,
		MaxCycles:  60_000_000,
		Seed:       1,
		MSHRs:      8,
		L1Sets:     128, L1Ways: 4,
		BankSets: 512, BankWays: 8,
		VCs: 2, BufDepth: 8,
		BankLatency: 4,
		TagLatency:  2,
	}
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if c.Mode != Baseline && c.Algorithm == nil {
		return fmt.Errorf("cmp: mode %v needs a compression algorithm", c.Mode)
	}
	if c.K < 2 {
		return fmt.Errorf("cmp: K must be >= 2")
	}
	if c.MCNode < 0 || c.MCNode >= c.K*c.K {
		return fmt.Errorf("cmp: MCNode %d out of range", c.MCNode)
	}
	for _, n := range c.ExtraMCNodes {
		if n < 0 || n >= c.K*c.K || n == c.MCNode {
			return fmt.Errorf("cmp: extra MC node %d invalid", n)
		}
	}
	if c.FlowControl != noc.Wormhole && c.BufDepth < 9 {
		return fmt.Errorf("cmp: %v flow control needs BufDepth >= 9 for 64B data packets", c.FlowControl)
	}
	if c.OpsPerCore <= 0 || c.MaxCycles == 0 || c.MSHRs <= 0 {
		return fmt.Errorf("cmp: non-positive run limits")
	}
	if c.L1Sets <= 0 || c.L1Sets&(c.L1Sets-1) != 0 || c.L1Ways <= 0 {
		return fmt.Errorf("cmp: bad L1 geometry %dx%d (sets must be a positive power of two, ways positive)",
			c.L1Sets, c.L1Ways)
	}
	if c.BankSets <= 0 || c.BankWays <= 0 {
		return fmt.Errorf("cmp: bad bank geometry %dx%d", c.BankSets, c.BankWays)
	}
	if c.SimWorkers > 1 {
		return fmt.Errorf("cmp: SimWorkers %d: the NoC engine is serial (0 or 1); parallelize across runs with -j", c.SimWorkers)
	}
	if c.Fault != nil {
		if err := c.Fault.Validate(); err != nil {
			return err
		}
	}
	if err := c.Profile.Validate(); err != nil {
		return err
	}
	if c.Streams != nil && len(c.Streams) != c.tiles() {
		return fmt.Errorf("cmp: %d trace streams for %d cores", len(c.Streams), c.tiles())
	}
	return nil
}

// tiles returns the tile count.
func (c *Config) tiles() int { return c.K * c.K }

// tagFactor resolves the tag multiplier.
func (c *Config) tagFactor() int {
	if c.TagFactor != 0 {
		return c.TagFactor
	}
	if c.Mode.usesCompression() {
		return 2
	}
	return 1
}

// algName is the algorithm name for the energy model.
func (c *Config) algName() string {
	if c.Mode == Baseline || c.Algorithm == nil {
		return "none"
	}
	return c.Algorithm.Name()
}
