// Command discosim runs the full-system DISCO experiments and regenerates
// the paper's tables and figures (see DESIGN.md for the experiment index).
//
// Usage:
//
//	discosim -exp fig5                # Figure 5 at full fidelity
//	discosim -exp all -quick          # everything, reduced settings
//	discosim -exp fig7 -benchmarks canneal,streamcluster -ops 8000
//	discosim -exp all -cache-dir .disco-cache        # crash-safe campaign
//	discosim -exp all -cache-dir .disco-cache -resume
//	discosim -run disco -benchmark canneal -alg sc2   # one raw run
//	discosim -run disco -benchmark canneal -profile -http :6060
//
// Exit codes (see README "Resumable campaigns"):
//
//	0  success
//	1  internal error (I/O, unexpected failure)
//	2  configuration error (bad flags, unknown mode/benchmark/experiment)
//	3  progress-watchdog stall
//	4  a cell failed terminally after exhausting its retries
//	5  interrupted (SIGINT/SIGTERM) after a graceful drain — resumable
//	   with the same -cache-dir plus -resume
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"github.com/disco-sim/disco/internal/cmp"
	"github.com/disco-sim/disco/internal/compress"
	"github.com/disco-sim/disco/internal/experiments"
	"github.com/disco-sim/disco/internal/fault"
	"github.com/disco-sim/disco/internal/metrics"
	"github.com/disco-sim/disco/internal/noc"
	"github.com/disco-sim/disco/internal/obs"
	"github.com/disco-sim/disco/internal/simrun"
	"github.com/disco-sim/disco/internal/store"
	"github.com/disco-sim/disco/internal/trace"
)

// The documented exit-code contract (tested in main_test.go).
const (
	ExitOK          = 0 // everything ran and every artifact was written
	ExitError       = 1 // internal error: I/O failure, unexpected error
	ExitConfig      = 2 // configuration error: bad flags, unknown names
	ExitStall       = 3 // the progress watchdog declared a stall
	ExitCellFailed  = 4 // a cell failed terminally after its retries
	ExitInterrupted = 5 // graceful drain completed; campaign is resumable
)

// configError marks operator-input mistakes so they exit with
// ExitConfig instead of ExitError.
type configError struct{ err error }

func (e *configError) Error() string { return e.err.Error() }
func (e *configError) Unwrap() error { return e.err }

// exitCode classifies err per the documented contract. Order matters:
// an interrupted campaign wraps ErrInterrupted even when cancellation
// text mentions other cells, and a stalled cell reaches the runner as
// a *CellError wrapping the *StallError — the stall is the diagnosis.
func exitCode(err error) int {
	if err == nil {
		return ExitOK
	}
	if errors.Is(err, simrun.ErrInterrupted) {
		return ExitInterrupted
	}
	var se *cmp.StallError
	if errors.As(err, &se) {
		return ExitStall
	}
	var ce *simrun.CellError
	if errors.As(err, &ce) {
		return ExitCellFailed
	}
	var cfg *configError
	if errors.As(err, &cfg) {
		return ExitConfig
	}
	return ExitError
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		exp     = flag.String("exp", "", "experiment: table1|fig5|fig6|fig7|fig8|area|ablation|calibrate|motivation|sensitivity|composition|all")
		jsonOut = flag.String("json", "", "write all experiment results as JSON to this file (runs everything)")
		csvOut  = flag.String("csv", "", "write raw per-run rows (benchmark x mode) as CSV to this file")
		quick   = flag.Bool("quick", false, "reduced settings (fewer ops, 4 benchmarks)")
		ops     = flag.Int("ops", 0, "measured memory ops per core (0 = preset)")
		warmup  = flag.Int("warmup", 0, "warmup ops per core (0 = preset)")
		seed    = flag.Int64("seed", 1, "workload seed")
		benchs  = flag.String("benchmarks", "", "comma-separated benchmark subset")

		runMode = flag.String("run", "", "single run mode: baseline|ideal|cc|cnc|disco")
		bench   = flag.String("benchmark", "bodytrack", "benchmark for -run")
		alg     = flag.String("alg", "delta", "compression algorithm for -run")
		k       = flag.Int("k", 4, "mesh radix for -run")

		metricsOut   = flag.String("metrics", "", "with -run: write the metrics-registry JSON export to this file")
		metricsEvery = flag.Uint64("metrics-every", 0, "time-series sampling interval in cycles (0 = default)")
		traceBin     = flag.String("trace-bin", "", "with -run: write a binary event trace (analyze with discotrace)")
		faultSpec    = flag.String("fault-spec", "", `with -run: arm fault injection, e.g. "engine=0.01,stuck=32,payload=0.001,credit=0.001" (see internal/fault)`)
		faultSeed    = flag.Int64("fault-seed", 1, "with -run: fault-injection PRNG seed")

		cacheDir = flag.String("cache-dir", "", "persist campaign results in this directory (crash-safe content-addressed store; reruns replay finished cells)")
		resume   = flag.Bool("resume", false, "with -cache-dir: report the previous campaign's manifest before replaying finished cells")
		retries  = flag.Int("retries", 2, "with -cache-dir: transient-failure retries per cell before recording a terminal failure")

		jobs    = flag.Int("j", 0, "parallel simulation workers (0 = all cores); results are byte-identical at any setting")
		noCache = flag.Bool("no-cache", false, "disable the cross-figure run memo cache")

		profile   = flag.Bool("profile", false, "with -run: print a per-phase wall-clock profile to stderr after the run (purely observational; artifacts stay byte-identical)")
		httpAddr  = flag.String("http", "", "serve /metrics, /status and /debug/pprof on this address while the run or campaign executes (e.g. :6060)")
		httpEvery = flag.Uint64("http-every", 0, "with -run -http: publish /status and /metrics snapshots every N cycles (0 = default)")
	)
	flag.Parse()

	// All operator-facing stderr chatter goes through one structured
	// reporter; stdout stays reserved for artifacts so redirected output
	// is byte-identical with or without observability armed.
	rep := obs.NewReporter(os.Stderr, "discosim")

	if *runMode != "" {
		o := observeOpts{metricsOut: *metricsOut, metricsEvery: *metricsEvery, traceBin: *traceBin,
			faultSpec: *faultSpec, faultSeed: *faultSeed,
			profile: *profile, httpAddr: *httpAddr, httpEvery: *httpEvery, rep: rep}
		if err := singleRun(*runMode, *bench, *alg, *k, *ops, *warmup, *seed, o); err != nil {
			fmt.Fprintln(os.Stderr, "discosim:", err)
			return exitCode(err)
		}
		return ExitOK
	}
	if *exp == "" && *jsonOut == "" && *csvOut == "" {
		flag.Usage()
		return ExitConfig
	}
	if *resume && *cacheDir == "" {
		fmt.Fprintln(os.Stderr, "discosim: -resume requires -cache-dir")
		return ExitConfig
	}
	o := experiments.Default()
	if *quick {
		o = experiments.Quick()
	}
	if *ops > 0 {
		o.Ops = *ops
	}
	if *warmup > 0 {
		o.Warmup = *warmup
	}
	o.Seed = *seed
	if *benchs != "" {
		o.Benchmarks = strings.Split(*benchs, ",")
	}
	for _, b := range o.Benchmarks {
		if _, ok := trace.ByName(b); !ok {
			fmt.Fprintf(os.Stderr, "discosim: unknown benchmark %q (have %s)\n",
				b, strings.Join(trace.Names(), ","))
			return ExitConfig
		}
	}
	// One scheduler for the whole invocation: experiments submit their
	// cells to it, and the memo cache dedupes shared baselines across
	// figures. Artifacts go to stdout/files; the summary goes to stderr
	// so redirected output stays byte-identical.
	o.Runner = simrun.New(*jobs, !*noCache)
	// Campaign persistence (DESIGN.md §13): the store becomes the second
	// cache tier behind the memo map, every distinct cell's outcome is
	// recorded in the manifest, and SIGINT/SIGTERM triggers a graceful
	// drain so in-flight results still reach disk before exit.
	var (
		st *store.Store
		mf *store.Manifest
	)
	if *cacheDir != "" {
		var err error
		st, err = store.Open(*cacheDir, store.Options{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "discosim:", err)
			return ExitError
		}
		if *resume && st.HasManifest() {
			if prev, err := st.LoadManifest(); err != nil {
				rep.Warnf("previous manifest unreadable (%v); replaying from store entries alone", err)
			} else {
				done, failed, canceled := prev.Counts()
				rep.Infof("resume: previous campaign recorded %d cells (%d done, %d failed, %d canceled); finished cells replay from %s",
					prev.Len(), done, failed, canceled, st.Dir())
			}
		}
		mf = store.NewManifest(st.Version())
		o.Runner.SetStore(st)
		retry := simrun.DefaultRetry()
		retry.MaxAttempts = *retries + 1
		o.Runner.SetRetry(retry)
		o.Runner.SetObserver(func(out simrun.Outcome) {
			rec := store.CellRecord{Key: out.Key.String(),
				Entry: st.EntryName(out.Key.Canonical()), Attempts: out.Attempts}
			switch {
			case out.Err == nil:
				rec.Status = store.StatusDone
				rec.Source = store.SourceSimulated
				if out.FromDisk {
					rec.Source = store.SourceDisk
				}
			case out.Attempts > 0:
				rec.Status = store.StatusFailed
				rec.Error = out.Err.Error()
			default:
				rec.Status = store.StatusCanceled
				rec.Error = out.Err.Error()
			}
			mf.Record(rec)
		})
		sigc := make(chan os.Signal, 2)
		signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(sigc)
		go func() {
			<-sigc
			rep.Infof("interrupt: draining in-flight cells (interrupt again to exit immediately)")
			o.Runner.Interrupt()
			<-sigc
			os.Exit(ExitInterrupted)
		}()
	}
	if *httpAddr != "" {
		srv, err := startCampaignServer(*httpAddr, o.Runner, rep)
		if err != nil {
			fmt.Fprintln(os.Stderr, "discosim:", err)
			return ExitError
		}
		defer srv.Close()
	}
	var runErr error
	switch {
	case *csvOut != "":
		runErr = writeCSVCampaign(o, *alg, *csvOut)
	case *jsonOut != "":
		runErr = writeJSONCampaign(o, *jsonOut)
	default:
		runErr = runExperiments(*exp, o)
	}
	code := exitCode(runErr)
	if st != nil {
		// Wait for drained/canceled cells to settle so the manifest and
		// store see every outcome, then flush the ledger.
		o.Runner.Quiesce()
		if merr := st.SaveManifest(mf); merr != nil {
			// Results durability lives in the entries; a manifest write
			// failure degrades reporting, not resumability.
			rep.Warnf("manifest not saved: %v", merr)
		}
	}
	ss := o.Runner.Stats()
	if ss.Submitted > 0 {
		rep.Infof("simrun: %d cells (%d simulated, %d cache hits, %d disk hits), j=%d",
			ss.Submitted, ss.Executed, ss.Hits, ss.DiskHits, o.Runner.Workers())
		if st != nil && (ss.Retries > 0 || ss.Quarantined > 0) {
			rep.Infof("store: %d retries, %d quarantined entries", ss.Retries, ss.Quarantined)
		}
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "discosim:", runErr)
	}
	if code == ExitInterrupted {
		rep.Infof("interrupted: campaign is resumable — rerun with -cache-dir %s -resume", *cacheDir)
	}
	return code
}

// writeCSVCampaign runs the raw benchmark x mode batch and writes it as
// CSV to path.
func writeCSVCampaign(o experiments.Opts, alg, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := experiments.BatchCSV(o, alg, f); err != nil {
		_ = f.Close() // the write error is the one worth reporting
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// writeJSONCampaign runs every experiment and writes the combined
// report as JSON to path.
func writeJSONCampaign(o experiments.Opts, path string) error {
	r, err := experiments.RunAll(o)
	if err != nil {
		return err
	}
	data, err := r.JSON()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// runExperiments dispatches one or all experiments.
func runExperiments(exp string, o experiments.Opts) error {
	want := func(name string) bool { return exp == name || exp == "all" }
	any := false
	if want("table1") {
		any = true
		r, err := experiments.Table1(o)
		if err != nil {
			return err
		}
		fmt.Println("== Table 1: compression scheme parameters ==")
		fmt.Println(r.Table())
	}
	if want("fig5") {
		any = true
		r, err := experiments.Fig5(o)
		if err != nil {
			return err
		}
		fmt.Println("== Figure 5: latency, delta compression ==")
		fmt.Println(r.Table())
		fmt.Println(r.Chart())
		fmt.Printf("DISCO gain: %.1f%% over CC, %.1f%% over CNC\n\n",
			r.DiscoGainOverCC(), r.DiscoGainOverCNC())
	}
	if want("fig6") {
		any = true
		rs, err := experiments.Fig6(o)
		if err != nil {
			return err
		}
		for _, a := range []string{"fpc", "sc2"} {
			r := rs[a]
			fmt.Printf("== Figure 6: latency, %s ==\n", a)
			fmt.Println(r.Table())
			fmt.Printf("DISCO gain: %.1f%% over CC, %.1f%% over CNC\n\n",
				r.DiscoGainOverCC(), r.DiscoGainOverCNC())
		}
	}
	if want("fig7") {
		any = true
		r, err := experiments.Fig7(o)
		if err != nil {
			return err
		}
		fmt.Println("== Figure 7: energy ==")
		fmt.Println(r.Table())
	}
	if want("fig8") {
		any = true
		r, err := experiments.Fig8(o)
		if err != nil {
			return err
		}
		fmt.Println("== Figure 8: scalability ==")
		fmt.Println(r.Table())
		fmt.Println(r.Chart())
	}
	if want("area") {
		any = true
		fmt.Println("== Section 4.3: area overhead ==")
		fmt.Println(experiments.AreaTable())
	}
	if want("ablation") {
		any = true
		r, err := experiments.Ablation(o)
		if err != nil {
			return err
		}
		fmt.Println("== DISCO policy ablation ==")
		fmt.Println(r.Table())
	}
	if exp == "composition" { // analysis aid, not part of "all"
		any = true
		r, err := experiments.Composition(o)
		if err != nil {
			return err
		}
		fmt.Println("== on-chip energy composition ==")
		fmt.Println(r.Table())
	}
	if exp == "sensitivity" { // analysis aid, not part of "all"
		any = true
		r, err := experiments.Sensitivity(o)
		if err != nil {
			return err
		}
		fmt.Println("== NoC sensitivity (VC depth / flow control) ==")
		fmt.Println(r.Table())
	}
	if exp == "motivation" { // analysis aid, not part of "all"
		any = true
		r, err := experiments.Motivation(o)
		if err != nil {
			return err
		}
		fmt.Println("== DISCO motivation statistics ==")
		fmt.Println(r.Table())
	}
	if exp == "calibrate" { // not part of "all": it is a tuning aid
		any = true
		r, err := experiments.CalibrateThresholds(o, nil, nil)
		if err != nil {
			return err
		}
		fmt.Println("== threshold calibration (Section 3.2 training) ==")
		fmt.Println(r.Table())
	}
	if !any {
		return &configError{fmt.Errorf("unknown experiment %q", exp)}
	}
	return nil
}

// observeOpts are the -run observability attachments and fault knobs.
type observeOpts struct {
	metricsOut   string
	metricsEvery uint64
	traceBin     string
	faultSpec    string
	faultSeed    int64
	profile      bool
	httpAddr     string
	httpEvery    uint64
	rep          *obs.Reporter     // structured stderr reporter (nil = fresh default)
	httpReady    func(addr string) // test hook: called once the endpoint is listening
}

// reporter returns the configured stderr reporter, defaulting to one on
// os.Stderr so library-style callers (tests) can pass observeOpts{}.
func (o observeOpts) reporter() *obs.Reporter {
	if o.rep != nil {
		return o.rep
	}
	return obs.NewReporter(os.Stderr, "discosim")
}

// buildConfig resolves the CLI names (mode, benchmark, algorithm) into
// a full-system configuration.
func buildConfig(mode, bench, alg string, k, ops, warmup int, seed int64, o observeOpts) (cmp.Config, error) {
	prof, ok := trace.ByName(bench)
	if !ok {
		return cmp.Config{}, &configError{fmt.Errorf("unknown benchmark %q (have %s)", bench, strings.Join(trace.Names(), ","))}
	}
	var m cmp.Mode
	switch mode {
	case "baseline":
		m = cmp.Baseline
	case "ideal":
		m = cmp.Ideal
	case "cc":
		m = cmp.CC
	case "cnc":
		m = cmp.CNC
	case "disco":
		m = cmp.DISCO
	default:
		return cmp.Config{}, &configError{fmt.Errorf("unknown mode %q", mode)}
	}
	var a compress.Algorithm
	if m != cmp.Baseline {
		var err error
		a, err = compress.New(alg)
		if err != nil {
			return cmp.Config{}, &configError{err}
		}
	}
	cfg := cmp.DefaultConfig(m, a, prof)
	cfg.K = k
	cfg.Seed = seed
	if ops > 0 {
		cfg.OpsPerCore = ops
	}
	if warmup > 0 {
		cfg.WarmupOps = warmup
	}
	if o.faultSpec != "" {
		spec, err := fault.ParseSpec(o.faultSpec)
		if err != nil {
			return cmp.Config{}, &configError{err}
		}
		spec.Seed = o.faultSeed
		cfg.Fault = &spec
	}
	return cfg, nil
}

// runStatus is the /status JSON document for one -run simulation. It is
// published at commit boundaries by the probe, so request goroutines
// only ever see an immutable, consistent snapshot.
type runStatus struct {
	Mode      string        `json:"mode"`
	Benchmark string        `json:"benchmark"`
	Cycle     uint64        `json:"cycle"`
	Done      bool          `json:"done"`
	Snapshot  *noc.Snapshot `json:"snapshot,omitempty"`
}

// singleRun executes one raw simulation and prints its result line.
func singleRun(mode, bench, alg string, k, ops, warmup int, seed int64, o observeOpts) error {
	rep := o.reporter()
	cfg, err := buildConfig(mode, bench, alg, k, ops, warmup, seed, o)
	if err != nil {
		return err
	}
	sys, err := cmp.New(cfg)
	if err != nil {
		return &configError{err}
	}
	var reg *metrics.Registry
	if o.metricsOut != "" {
		reg = metrics.NewRegistry()
		sys.AttachMetrics(reg, o.metricsEvery)
	}
	var pp *obs.PhaseProfiler
	if o.profile || o.httpAddr != "" {
		pp = obs.NewPhaseProfiler(1)
		sys.AttachProfiler(pp)
	}
	if o.httpAddr != "" {
		// /metrics renders the profiler registry live (it reads only
		// atomics) and appends the boundary-published simulation export;
		// /status serves the probe-published runStatus document.
		srv := obs.NewServer()
		obsReg := metrics.NewRegistry()
		pp.AttachMetrics(obsReg)
		srv.SetLiveMetrics(func() []byte {
			var b bytes.Buffer
			if err := obsReg.WritePrometheus(&b, obs.Namespace); err != nil {
				return nil
			}
			return b.Bytes()
		})
		publish := func(done bool) {
			_ = srv.PublishStatus(runStatus{Mode: mode, Benchmark: bench,
				Cycle: sys.NowCycle(), Done: done, Snapshot: sys.Network().Snapshot()})
			if reg != nil {
				_ = srv.PublishMetricsExport(reg.Snapshot())
			}
		}
		sys.SetProbe(o.httpEvery, func() { publish(false) })
		publish(false)
		defer func() { publish(true); _ = srv.Close() }()
		addr, err := srv.Start(o.httpAddr)
		if err != nil {
			return err
		}
		rep.Infof("observability endpoint on http://%s (/metrics /status /debug/pprof)", addr)
		if o.httpReady != nil {
			o.httpReady(addr)
		}
	}
	var bt *noc.BinaryTracer
	if o.traceBin != "" {
		f, err := os.Create(o.traceBin)
		if err != nil {
			return err
		}
		ncfg := sys.Network().Config()
		bt = noc.NewBinaryTracer(f, ncfg.Nodes())
		sys.Network().SetTracer(bt)
	}
	r, err := sys.Run()
	if bt != nil {
		if cerr := bt.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		// A stall carries a structured snapshot of everything in flight —
		// print it rather than just the headline.
		var se *cmp.StallError
		if errors.As(err, &se) && se.Snapshot != nil {
			rep.Block("stall snapshot", se.Snapshot.String())
		}
		return err
	}
	if pp != nil && o.profile {
		rep.Block("phase profile", pp.Report().String())
	}
	if reg != nil {
		f, err := os.Create(o.metricsOut)
		if err != nil {
			return err
		}
		if err := reg.WriteJSON(f); err != nil {
			_ = f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", o.metricsOut)
	}
	if bt != nil {
		fmt.Printf("wrote %s (%d records)\n", o.traceBin, bt.Count)
	}
	fmt.Println(r.Detailed())
	return nil
}

// campaignStatus is the /status JSON document for an experiment
// campaign: the runner's live cell counters (Done is the number a
// progress watcher polls).
type campaignStatus struct {
	Submitted   uint64 `json:"cells_submitted"`
	Executed    uint64 `json:"cells_executed"`
	Hits        uint64 `json:"cells_cache_hits"`
	DiskHits    uint64 `json:"cells_disk_hits"`
	Retries     uint64 `json:"retries"`
	Quarantined uint64 `json:"quarantined"`
	Done        uint64 `json:"cells_done"`
	Workers     int    `json:"workers"`
}

// startCampaignServer serves live campaign progress while experiments
// run. Both endpoints read simrun.Runner.Stats(), which is
// mutex-guarded, so the live closures are safe to call from request
// goroutines at any moment.
func startCampaignServer(addr string, r *simrun.Runner, rep *obs.Reporter) (*obs.Server, error) {
	srv := obs.NewServer()
	srv.SetLiveStatus(func() any {
		st := r.Stats()
		return campaignStatus{Submitted: st.Submitted, Executed: st.Executed,
			Hits: st.Hits, DiskHits: st.DiskHits, Retries: st.Retries,
			Quarantined: st.Quarantined, Done: st.Done, Workers: r.Workers()}
	})
	srv.SetLiveMetrics(func() []byte {
		st := r.Stats()
		reg := metrics.NewRegistry()
		sc := reg.Scope("simrun")
		sc.Counter("cells_submitted").Add(st.Submitted)
		sc.Counter("cells_executed").Add(st.Executed)
		sc.Counter("cells_cache_hits").Add(st.Hits)
		sc.Counter("disk_hits").Add(st.DiskHits)
		sc.Counter("retries").Add(st.Retries)
		sc.Counter("quarantined").Add(st.Quarantined)
		sc.Counter("cells_done").Add(st.Done)
		sc.Gauge("workers").Set(float64(r.Workers()))
		var b bytes.Buffer
		if err := reg.WritePrometheus(&b, obs.Namespace); err != nil {
			return nil
		}
		return b.Bytes()
	})
	bound, err := srv.Start(addr)
	if err != nil {
		return nil, err
	}
	rep.Infof("observability endpoint on http://%s (/metrics /status /debug/pprof)", bound)
	return srv, nil
}
