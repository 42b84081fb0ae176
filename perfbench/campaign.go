package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/disco-sim/disco/internal/cmp"
	"github.com/disco-sim/disco/internal/compress"
	"github.com/disco-sim/disco/internal/experiments"
	"github.com/disco-sim/disco/internal/simrun"
	"github.com/disco-sim/disco/internal/store"
	"github.com/disco-sim/disco/internal/trace"
)

// campaignSize fixes one campaign: Fig. 5 and Fig. 7 over a few
// profiles at the default 4×4 mesh, sharing one runner.
type campaignSize struct {
	ops, warmup int
	benchmarks  []string
	workers     int
	setupDiv    int
	probeEvery  uint64
}

// campaignK4 uses one worker. On the two-vCPU host the benchmark was
// sized on, a second worker made the campaign time depend on how busy
// the other vCPU's neighbours were (quartile spread 18% against 14%
// with one) and the peak RSS on how the workers' heaps overlapped (12%
// against 2%). Memo hits between the figures do not depend on it.
var campaignK4 = campaignSize{
	ops: 200, warmup: 100, benchmarks: []string{"bodytrack", "canneal", "freqmine", "x264"},
	workers: 1, setupDiv: 4, probeEvery: 100,
}

func (z campaignSize) opts(seed int64, div int, r *simrun.Runner) experiments.Opts {
	return experiments.Opts{Ops: z.ops / div, Warmup: z.warmup / div, Seed: seed, Benchmarks: z.benchmarks, Runner: r}
}

// figures is one campaign's output; its JSON encoding is what the store
// replay must reproduce byte for byte.
type figures struct {
	Fig5 experiments.LatencyResult
	Fig7 experiments.EnergyResult
}

func runFigures(o experiments.Opts) (figures, error) {
	var f figures
	var err error
	if f.Fig5, err = experiments.Fig5(o); err != nil {
		return f, err
	}
	f.Fig7, err = experiments.Fig7(o)
	return f, err
}

// campaignPass is one cold campaign into a fresh store and its replay.
type campaignPass struct {
	cold     sample
	out      figures
	replayed figures
	executed []simrun.Key
	stats    simrun.Stats
	replay   simrun.Stats
	stReplay store.Stats
}

// coldAndReplay runs the campaign cold through a runner persisting into
// a fresh store under dir, then replays it from that store with a fresh
// runner. fs, when non-nil, wraps the store's filesystem.
func coldAndReplay(z campaignSize, seed int64, div int, dir string, fs store.FS) (*campaignPass, error) {
	st, err := store.Open(dir, store.Options{FS: fs})
	if err != nil {
		return nil, err
	}
	p := &campaignPass{}
	r := simrun.New(z.workers, true)
	r.SetStore(st)
	var mu sync.Mutex
	r.SetObserver(func(o simrun.Outcome) {
		if o.Attempts > 0 && o.Err == nil {
			mu.Lock()
			p.executed = append(p.executed, o.Key)
			mu.Unlock()
		}
	})
	t := startTimer()
	p.out, err = runFigures(z.opts(seed, div, r))
	// A cell's future completes before its observer call: wait for the
	// last one, or p.executed may miss it.
	r.Quiesce()
	p.cold = t.stop(0)
	if err != nil {
		return nil, fmt.Errorf("cold campaign: %w", err)
	}
	p.stats = r.Stats()

	st2, err := store.Open(dir, store.Options{FS: fs})
	if err != nil {
		return nil, err
	}
	r2 := simrun.New(z.workers, true)
	r2.SetStore(st2)
	p.replayed, err = runFigures(z.opts(seed, div, r2))
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	p.replay = r2.Stats()
	p.stReplay = st2.Stats()
	return p, nil
}

// check verifies the replay against the cold pass (and both against
// ref, the first pass of the run) and counts the cells attempted.
func (p *campaignPass) check(res *result, ref *[]byte, what string) error {
	cold, err := json.Marshal(p.out)
	if err != nil {
		return err
	}
	replayed, err := json.Marshal(p.replayed)
	if err != nil {
		return err
	}
	cells := int64(p.stats.Executed)
	res.attempted += 2 * cells
	if *ref == nil {
		*ref = cold
	} else if string(cold) != string(*ref) {
		res.fail(cells, "%s: cold campaign differs from the first one", what)
	}
	if string(replayed) != string(cold) {
		res.fail(cells, "%s: store replay differs from the cold campaign", what)
	}
	if p.replay.Executed != 0 || p.replay.DiskHits != p.stats.Executed || p.stReplay.Quarantined != 0 {
		res.fail(cells, "%s: replay executed %d cells, replayed %d of %d, quarantined %d",
			what, p.replay.Executed, p.replay.DiskHits, p.stats.Executed, p.stReplay.Quarantined)
	}
	return nil
}

// executedCycles sums the simulated cycles of the cells the cold pass
// executed, read back from the store after the timed region.
func executedCycles(dir string, keys []simrun.Key) (float64, map[string]cmp.Results, error) {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return 0, nil, err
	}
	var cycles float64
	byKey := make(map[string]cmp.Results, len(keys))
	for _, k := range keys {
		r, ok := st.Get(k.Canonical())
		if !ok {
			return 0, nil, fmt.Errorf("executed cell %s missing from the store", k)
		}
		cycles += float64(r.Cycles)
		byKey[k.Canonical()] = r
	}
	return cycles, byKey, nil
}

// runCampaign measures cold campaigns, each into a fresh persistent
// store and each followed by a replay from that store.
func runCampaign(e *runEnv, z campaignSize, res *result) error {
	root := filepath.Join(e.out, fmt.Sprintf("campaign-%d", os.Getpid()))
	defer os.RemoveAll(root)
	n := 0
	freshDir := func() string {
		n++
		return filepath.Join(root, fmt.Sprintf("store-%d", n))
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return err
	}
	e.host.StoreFS = fsTypeName(root)

	setup, err := setupSeconds(3, func() error {
		dir := freshDir()
		defer os.RemoveAll(dir)
		_, err := coldAndReplay(z, e.seed, z.setupDiv, dir, nil)
		return err
	})
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}

	var ref []byte
	var refCells map[string]cmp.Results
	var coldS []float64
	samples, err := measure(e.seconds, func() (sample, error) {
		dir := freshDir()
		defer os.RemoveAll(dir)
		p, err := coldAndReplay(z, e.seed, 1, dir, nil)
		if err != nil {
			return sample{}, err
		}
		if err := p.check(res, &ref, "timed campaign"); err != nil {
			return sample{}, err
		}
		cycles, cells, err := executedCycles(dir, p.executed)
		if err != nil {
			return sample{}, err
		}
		if refCells == nil {
			refCells = cells
		}
		coldS = append(coldS, p.cold.wall)
		p.cold.work = cycles
		return p.cold, nil
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
	res.set("campaign.cold_s", median(coldS))
	return tracedCampaign(e, z, res, freshDir(), ref, refCells)
}

// tracedCampaign runs the campaign once more with every layer timed.
// The cold pass submits the same cells the figure harnesses submit, in
// the same order and under the same keys, through closures that time
// queue wait, cmp.New and Run; the replay goes through the harnesses.
func tracedCampaign(e *runEnv, z campaignSize, res *result, dir string, ref []byte, refCells map[string]cmp.Results) error {
	defer os.RemoveAll(dir)
	tr := newTracer()
	fst := &fsStats{}
	tfs := &timedFS{fs: store.OSFS{}, st: fst, tr: tr}
	st, err := store.Open(dir, store.Options{FS: tfs})
	if err != nil {
		return err
	}
	r := simrun.New(z.workers, true)
	r.SetStore(st)

	var mu sync.Mutex
	var sum simLayers
	results := make(map[string]cmp.Results)
	var queueNS, busyNS int64
	o := z.opts(e.seed, 1, r)
	var root int // the cold pass's span, opened just before the first submit
	submit := func(req int64, mode cmp.Mode, prof trace.Profile) *simrun.Future {
		build := func() (cmp.Config, error) {
			var a compress.Algorithm
			if mode != cmp.Baseline {
				var err error
				if a, err = compress.New("delta"); err != nil {
					return cmp.Config{}, err
				}
			}
			cfg := cmp.DefaultConfig(mode, a, prof)
			cfg.OpsPerCore, cfg.WarmupOps, cfg.Seed = o.Ops, o.Warmup, o.Seed
			return cfg, nil
		}
		cfg, err := build()
		if err != nil {
			panic(err) // "delta" is a registered codec
		}
		key := simrun.KeyFor(&cfg)
		submitted := tr.now()
		return r.Submit(key, func() (cmp.Results, error) {
			start := tr.now()
			cell := tr.begin("simrun.cell", root, req)
			rr, sys, l, err := tracedSimRun(tr, cell, req, build, z.probeEvery)
			tr.end(cell)
			if err != nil {
				return rr, err
			}
			if err := checkQuiescent(sys); err != nil {
				return rr, err
			}
			mu.Lock()
			defer mu.Unlock()
			queueNS += start - submitted
			busyNS += tr.now() - start
			sum.add(l)
			results[key.Canonical()] = rr
			return rr, nil
		})
	}

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	root = tr.begin("bench.campaign", 0, 0)
	tfs.parent.Store(int64(root))
	t0 := time.Now()
	var futs []*simrun.Future
	req := int64(0)
	for _, modes := range [][]cmp.Mode{
		{cmp.Ideal, cmp.CC, cmp.CNC, cmp.DISCO},    // Fig. 5
		{cmp.Baseline, cmp.CC, cmp.CNC, cmp.DISCO}, // Fig. 7
	} {
		for _, name := range z.benchmarks {
			for _, m := range modes {
				req++
				futs = append(futs, submit(req, m, mustProfile(name)))
			}
		}
	}
	for _, f := range futs {
		if _, err := f.Wait(); err != nil {
			res.fail(1, "traced cell: %v", err)
		}
	}
	coldS := time.Since(t0).Seconds()
	tr.end(root)
	runtime.ReadMemStats(&m1)
	stats := r.Stats()
	putS := float64(fst.putNS()) / 1e9
	puts := fst.rename.calls.Load()
	written := fst.write.bytes.Load()
	fsyncs := fst.sync.calls.Load() + fst.syncDir.calls.Load()

	// Traced results must equal the untraced cold pass cell for cell.
	res.attempted += int64(len(results))
	if len(results) != len(refCells) {
		res.fail(1, "traced pass executed %d cells, untraced %d", len(results), len(refCells))
	}
	all := make([]cmp.Results, 0, len(results))
	for k, rr := range results {
		all = append(all, rr)
		got, err := json.Marshal(rr)
		if err != nil {
			return err
		}
		want, err := json.Marshal(refCells[k])
		if err != nil {
			return err
		}
		if string(got) != string(want) {
			res.fail(1, "traced cell %s differs from the untraced run", k)
		}
	}

	st2, err := store.Open(dir, store.Options{FS: tfs})
	if err != nil {
		return err
	}
	r2 := simrun.New(z.workers, true)
	r2.SetStore(st2)
	replayRoot := tr.begin("bench.replay", 0, 0)
	tfs.parent.Store(int64(replayRoot))
	reads0 := fst.readFile.calls.Load()
	readNS0 := fst.readFile.ns.Load()
	t0 = time.Now()
	replayed, err := runFigures(z.opts(e.seed, 1, r2))
	replayS := time.Since(t0).Seconds()
	tr.end(replayRoot)
	if err != nil {
		return fmt.Errorf("traced replay: %w", err)
	}
	got, err := json.Marshal(replayed)
	if err != nil {
		return err
	}
	res.attempted++
	if string(got) != string(ref) {
		res.fail(1, "traced replay differs from the untraced campaign")
	}
	quarantined := st2.Stats().Quarantined + st.Stats().Quarantined
	if quarantined != 0 {
		res.fail(int64(quarantined), "traced store quarantined %d entries", quarantined)
	}

	setOverhead(res, float64(sum.cycles)/coldS)
	sum.report(res, z.probeEvery)
	// The heap counters are process-wide: count them over the whole pass.
	res.set("heap.allocs_per_cycle", ratio(float64(m1.Mallocs-m0.Mallocs), float64(sum.cycles)))
	res.set("heap.bytes_per_cycle", ratio(float64(m1.TotalAlloc-m0.TotalAlloc), float64(sum.cycles)))
	res.set("gc.count", float64(m1.NumGC-m0.NumGC))
	simCounts(res, all)
	res.set("simrun.cells_executed", float64(stats.Executed))
	res.set("simrun.memo_hits", float64(stats.Hits))
	res.set("simrun.queue_wait_ms", ratio(float64(queueNS)/1e6, float64(stats.Executed)))
	res.set("simrun.worker_busy_ratio", ratio(float64(busyNS)/1e9, float64(z.workers)*coldS))
	res.set("store.put_ms", ratio(putS*1e3, float64(puts)))
	reads := fst.readFile.calls.Load() - reads0
	res.set("store.get_ms", ratio(float64(fst.readFile.ns.Load()-readNS0)/1e6, float64(reads)))
	res.set("store.replay_ms", replayS*1e3)
	res.set("store.fsyncs_per_cell", ratio(float64(fsyncs), float64(puts)))
	res.set("store.bytes_per_cell", ratio(float64(written), float64(puts)))
	res.set("store.quarantined", float64(quarantined))

	profs := make([]trace.Profile, len(z.benchmarks))
	for i, name := range z.benchmarks {
		profs[i] = mustProfile(name)
	}
	k := cmp.DefaultConfig(cmp.Baseline, nil, profs[0]).K
	if err := traceLayers(tr, res, profs, k*k, z.ops+z.warmup, e.seed); err != nil {
		return err
	}
	return writeSpans(e, tr, "campaign-k4", res)
}
