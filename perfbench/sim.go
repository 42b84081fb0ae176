package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"github.com/disco-sim/disco/internal/cmp"
	"github.com/disco-sim/disco/internal/compress"
	"github.com/disco-sim/disco/internal/obs"
	"github.com/disco-sim/disco/internal/trace"
)

// simSize fixes one full-system run.
type simSize struct {
	k, ops, warmup int
	bench          string
	// setupDiv shrinks the warm-up run that set-up performs.
	setupDiv int
	// probeEvery is the probe window in simulated cycles; a run must
	// span at least 1000 windows for the p99 window to be reported.
	probeEvery uint64
}

// simK8 is the NoC-heavy case: an 8×8 mesh where most host time goes
// into routers and links.
var simK8 = simSize{k: 8, ops: 500, warmup: 125, bench: "canneal", setupDiv: 5, probeEvery: 100}

// drainBudget bounds the cycles Drain may take after a run before the
// network counts as wedged.
const drainBudget = 200_000

func (z simSize) config(seed int64, div int) (cmp.Config, error) {
	prof, ok := trace.ByName(z.bench)
	if !ok {
		return cmp.Config{}, fmt.Errorf("unknown benchmark profile %q", z.bench)
	}
	alg, err := compress.New("delta")
	if err != nil {
		return cmp.Config{}, err
	}
	cfg := cmp.DefaultConfig(cmp.DISCO, alg, prof)
	cfg.K = z.k
	cfg.OpsPerCore = z.ops / div
	cfg.WarmupOps = z.warmup / div
	cfg.Seed = seed
	cfg.SimWorkers = 1
	return cfg, nil
}

// checkQuiescent drains sys after its run and reports what is wrong
// with the final state, if anything.
func checkQuiescent(sys *cmp.System) error {
	if !sys.Drain(drainBudget) {
		return fmt.Errorf("network not quiescent after %d drain cycles", drainBudget)
	}
	if v := sys.CheckInvariants(); len(v) > 0 {
		return fmt.Errorf("%d invariant violations, first: %s", len(v), v[0])
	}
	return nil
}

// runSim measures repeated full-system runs of one configuration. The
// simulated Results of every run, the traced one included, must be
// byte-identical, and every run must drain clean.
func runSim(e *runEnv, z simSize, res *result) error {
	setup, err := setupSeconds(3, func() error {
		cfg, err := z.config(e.seed, z.setupDiv)
		if err != nil {
			return err
		}
		sys, err := cmp.New(cfg)
		if err != nil {
			return err
		}
		_, err = sys.Run()
		return err
	})
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}

	var ref []byte
	check := func(r cmp.Results, sys *cmp.System, what string) error {
		res.attempted++
		got, err := json.Marshal(r)
		if err != nil {
			return err
		}
		if ref == nil {
			ref = got
		} else if string(got) != string(ref) {
			res.fail(1, "%s: simulated results differ from the first run", what)
			return nil
		}
		if err := checkQuiescent(sys); err != nil {
			res.fail(1, "%s: %v", what, err)
		}
		return nil
	}
	samples, err := measure(e.seconds, func() (sample, error) {
		cfg, err := z.config(e.seed, 1)
		if err != nil {
			return sample{}, err
		}
		sys, err := cmp.New(cfg)
		if err != nil {
			return sample{}, err
		}
		t := startTimer()
		r, err := sys.Run()
		s := t.stop(float64(r.Cycles))
		if err != nil {
			return s, err
		}
		return s, check(r, sys, "timed run")
	})
	if err != nil {
		return err
	}
	if err := setEndToEnd(res, setup, samples); err != nil {
		return err
	}
	if !e.trace {
		return nil
	}

	tr := newTracer()
	runtime.GC()
	r, sys, l, err := tracedSimRun(tr, 0, 0, func() (cmp.Config, error) { return z.config(e.seed, 1) }, z.probeEvery)
	if err != nil {
		return err
	}
	if err := check(r, sys, "traced run"); err != nil {
		return err
	}
	setOverhead(res, float64(r.Cycles)/l.runS)
	l.report(res, z.probeEvery)
	simCounts(res, []cmp.Results{r})
	if err := traceLayers(tr, res, []trace.Profile{mustProfile(z.bench)}, z.k*z.k, z.ops+z.warmup, e.seed); err != nil {
		return err
	}
	return writeSpans(e, tr, "sim-k8", res)
}

func mustProfile(name string) trace.Profile {
	p, ok := trace.ByName(name)
	if !ok {
		panic("unknown profile " + name) // names come from this package's constants
	}
	return p
}

// simLayers accumulates the per-layer measurements of traced
// simulations (one run, or every executed cell of a campaign).
type simLayers struct {
	newS, runS float64
	cycles     uint64
	phaseNS    [obs.NumPhases]int64
	windowsNS  []float64 // host ns per simulated cycle, per probe window
	mallocs    uint64
	allocBytes uint64
	gcs        uint32
}

// add folds other into l.
func (l *simLayers) add(o *simLayers) {
	l.newS += o.newS
	l.runS += o.runS
	l.cycles += o.cycles
	for i := range l.phaseNS {
		l.phaseNS[i] += o.phaseNS[i]
	}
	l.windowsNS = append(l.windowsNS, o.windowsNS...)
	l.mallocs += o.mallocs
	l.allocBytes += o.allocBytes
	l.gcs += o.gcs
}

// tracedSimRun builds and runs one system with the NoC phase profiler
// and a probe armed, recording cmp.new and cmp.run spans under parent.
// The heap counters are process-wide, so they are exact only when no
// other simulation runs concurrently.
func tracedSimRun(tr *tracer, parent int, req int64, build func() (cmp.Config, error), every uint64) (cmp.Results, *cmp.System, *simLayers, error) {
	var l simLayers
	cfg, err := build()
	if err != nil {
		return cmp.Results{}, nil, nil, err
	}
	sp := tr.begin("cmp.new", parent, req)
	t0 := time.Now()
	sys, err := cmp.New(cfg)
	l.newS = time.Since(t0).Seconds()
	tr.end(sp)
	if err != nil {
		return cmp.Results{}, nil, nil, err
	}
	prof := obs.NewPhaseProfiler(1)
	sys.AttachProfiler(prof)
	last, lastCycle := time.Now(), uint64(0)
	sys.SetProbe(every, func() {
		now, cyc := time.Now(), sys.NowCycle()
		l.windowsNS = append(l.windowsNS, float64(now.Sub(last).Nanoseconds())/float64(cyc-lastCycle))
		last, lastCycle = now, cyc
	})
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sp = tr.begin("cmp.run", parent, req)
	t0 = time.Now()
	last = t0
	r, err := sys.Run()
	l.runS = time.Since(t0).Seconds()
	tr.end(sp)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return r, sys, nil, err
	}
	l.cycles = r.Cycles
	for _, ph := range obs.Phases() {
		l.phaseNS[ph] = prof.TotalNS(ph)
	}
	l.mallocs = m1.Mallocs - m0.Mallocs
	l.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	l.gcs = m1.NumGC - m0.NumGC
	return r, sys, &l, nil
}

// report sets the cmp, noc and heap per-layer metrics.
func (l *simLayers) report(res *result, every uint64) {
	res.set("cmp.new_ms", l.newS*1e3)
	var nocNS int64
	for _, ph := range obs.Phases() {
		nocNS += l.phaseNS[ph]
		res.set("noc."+ph.String()+"_s", float64(l.phaseNS[ph])/1e9)
	}
	res.set("cmp.unattributed_s", l.runS-float64(nocNS)/1e9)
	res.set("cmp.probe_windows", float64(len(l.windowsNS)))
	windows := append([]float64(nil), l.windowsNS...)
	res.set("cmp.ns_per_cycle_p50", median(windows))
	if p99, err := percentile(windows, 99); err == nil {
		res.set("cmp.ns_per_cycle_p99", p99)
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: cmp.ns_per_cycle_p99 not reported: %v (probe every %d cycles)\n", err, every)
	}
	cyc := float64(l.cycles)
	res.set("heap.allocs_per_cycle", ratio(float64(l.mallocs), cyc))
	res.set("heap.bytes_per_cycle", ratio(float64(l.allocBytes), cyc))
	res.set("gc.count", float64(l.gcs))
}

// simCounts sets the simulated statistics, summed over runs. They are
// outputs of the model, not of the host: a speed-only change must leave
// every one of them unchanged.
func simCounts(res *result, rs []cmp.Results) {
	var cycles, misses, l1h, l1m, l2h, l2m, dram, pkts, resid, engCyc, engExp float64
	var missLat, queue, energy float64
	for _, r := range rs {
		cycles += float64(r.Cycles)
		misses += float64(r.Misses)
		missLat += r.AvgMissLatency * float64(r.Misses)
		l1h += float64(r.L1Hits)
		l1m += float64(r.L1Misses)
		l2h += float64(r.L2Hits)
		l2m += float64(r.L2Misses)
		dram += float64(r.DramAccesses)
		pkts += float64(r.Net.Ejected)
		queue += r.Net.QueueCycles.Mean() * float64(r.Net.Ejected)
		resid += float64(r.ResidualOps)
		engCyc += float64(r.Net.PktEngineCycles)
		engExp += float64(r.Net.PktEngineExposed)
		energy += r.Energy.Total() / 1e3 // pJ -> nJ
	}
	res.set("sim.cycles", cycles)
	res.set("sim.miss_latency_cycles", ratio(missLat, misses))
	res.set("cache.l1_miss_ratio", ratio(l1m, l1h+l1m))
	res.set("cache.l2_hit_ratio", ratio(l2h, l2h+l2m))
	res.set("mem.dram_accesses", dram)
	res.set("noc.packets", pkts)
	res.set("noc.queue_cycles_per_pkt", ratio(queue, pkts))
	res.set("disco.overlap_ratio", ratio(engCyc-engExp, engCyc))
	res.set("disco.residual_ops", resid)
	res.set("energy.total_nj", energy)
}

// traceLayers replays the workload generator and block contents that
// the simulations consumed — every core's access stream for each
// profile and seed, then the content of each distinct block and its
// delta compression — timing each public call.
func traceLayers(tr *tracer, res *result, profs []trace.Profile, cores, accesses int, seed int64) error {
	var nextNS, contentNS, compNS time.Duration
	var nexts, blocks int
	alg, err := compress.New("delta")
	if err != nil {
		return err
	}
	for pi := range profs {
		p := &profs[pi]
		sp := tr.begin("trace.next", 0, int64(pi))
		seen := make(map[uint64]bool)
		var addrs []uint64
		t0 := time.Now()
		for c := 0; c < cores; c++ {
			g := trace.NewGenerator(p, c, seed)
			for i := 0; i < accesses; i++ {
				a := g.Next()
				if !seen[a.Addr] {
					seen[a.Addr] = true
					addrs = append(addrs, a.Addr)
				}
			}
		}
		nextNS += time.Since(t0)
		nexts += cores * accesses
		tr.end(sp)

		sp = tr.begin("trace.content", 0, int64(pi))
		data := make([][]byte, len(addrs))
		t0 = time.Now()
		for i, a := range addrs {
			data[i] = p.Content(a)
		}
		contentNS += time.Since(t0)
		tr.end(sp)

		sp = tr.begin("compress.delta", 0, int64(pi))
		t0 = time.Now()
		for _, b := range data {
			alg.Compress(b)
		}
		compNS += time.Since(t0)
		blocks += len(data)
		tr.end(sp)
	}
	res.set("trace.next_ns", ratio(float64(nextNS.Nanoseconds()), float64(nexts)))
	res.set("trace.content_ns", ratio(float64(contentNS.Nanoseconds()), float64(blocks)))
	res.set("compress.delta_ns_per_block", ratio(float64(compNS.Nanoseconds()), float64(blocks)))
	return nil
}
