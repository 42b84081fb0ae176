package cmp

import (
	"strconv"

	"github.com/disco-sim/disco/internal/metrics"
	"github.com/disco-sim/disco/internal/noc"
	"github.com/disco-sim/disco/internal/obs"
)

// Network exposes the system's NoC for observability attachments
// (tracers, metrics); the returned network is owned by the system.
func (s *System) Network() *noc.Network { return s.net }

// NowCycle returns the current simulated cycle. Safe to read from the
// simulation goroutine or from a probe callback; concurrent readers
// (HTTP handlers) must go through boundary-published snapshots instead.
func (s *System) NowCycle() uint64 { return s.now }

// AttachProfiler arms the NoC's stage-level wall-clock profiler. Purely
// observational: the run's artifacts are byte-identical with or without
// it.
func (s *System) AttachProfiler(p *obs.PhaseProfiler) { s.net.AttachProfiler(p) }

// SetProbe installs fn to run on the simulation goroutine every `every`
// cycles (0 = the watchdog's period), only at commit boundaries — the
// one point where the network's staged effects are all applied and its
// state is coherent. The obs HTTP endpoint publishes its /status and
// /metrics snapshots from here; because fn runs between Steps on the
// sim goroutine, it can read any system state race-free, and because it
// only READS, the probe cannot perturb the simulation.
func (s *System) SetProbe(every uint64, fn func()) {
	if every == 0 {
		every = watchdogPeriod
	}
	s.probeEvery, s.probeFn = every, fn
}

// AttachMetrics registers the full-system observability surface in reg:
// the NoC scope (see noc.Network.AttachMetrics) plus a "cmp" scope with
// memory-hierarchy counters, latency accumulators and a per-tile
// rollup. interval is the time-series sampling period in cycles (0 =
// noc.DefaultSampleInterval). Call before Run; export after.
func (s *System) AttachMetrics(reg *metrics.Registry, interval uint64) {
	s.net.AttachMetrics(reg, interval)

	cs := reg.Scope("cmp")
	cs.CounterFunc("l2_hits", func() uint64 { return s.l2Hits })
	cs.CounterFunc("l2_misses", func() uint64 { return s.l2Misses })
	cs.CounterFunc("bank_accesses", func() uint64 { return s.bankAccesses })
	cs.CounterFunc("bank_bytes", func() uint64 { return s.bankBytes })
	cs.CounterFunc("dram_accesses", func() uint64 { return s.dramAccesses() })
	cs.CounterFunc("endpoint_compressions", func() uint64 { return s.compOps })
	cs.CounterFunc("endpoint_decompressions", func() uint64 { return s.decompOps })
	cs.CounterFunc("residual_conversions", func() uint64 { return s.residualOps })
	cs.CounterFunc("writeback_packets", func() uint64 { return s.wbPackets })
	cs.ObserveMean("miss_latency_onchip", &s.missLatency)
	cs.ObserveMean("miss_latency_total", &s.missTotal)
	cs.ObserveHistogram("miss_latency_hist", s.missHist)

	for i := 0; i < s.cfg.tiles(); i++ {
		i := i
		ts := cs.Scope("tile", strconv.Itoa(i))
		ts.CounterFunc("l1_hits", func() uint64 { return s.l1s[i].Hits })
		ts.CounterFunc("l1_misses", func() uint64 { return s.l1s[i].Misses })
		ts.CounterFunc("bank_hits", func() uint64 { return s.banks[i].Hits })
		ts.CounterFunc("bank_misses", func() uint64 { return s.banks[i].Misses })
	}

	// Time-series probes: memory-side pulse alongside the NoC's.
	reg.AddSample("cmp.l2_misses", func() float64 { return float64(s.l2Misses) })
	reg.AddSample("cmp.outstanding_txns", func() float64 {
		n := 0
		for _, m := range s.txns {
			n += len(m)
		}
		return float64(n)
	})
}
