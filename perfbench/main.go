// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload for a fixed time, checks that every output is correct,
// and prints one JSON result line:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the result carries the end-to-end metrics declared in
// BENCHMARK.json; with --trace 1 it carries the per-layer metrics of one
// extra traced pass, measured from outside by timing calls into each
// layer's public functions. See README.md for the workloads and the
// layer-to-end-to-end map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"time"
)

// defaultSeed drives the inputs while the benchmark is tuned and
// compared; heldOutSeed is kept back for confirming later claims.
const (
	defaultSeed = 1
	heldOutSeed = 9137
)

// result is what one workload reports.
type result struct {
	correct           bool
	attempted, failed int64
	e2e               map[string]float64
	// layer holds the per-layer metrics the workload measured; the
	// others are reported as 0: that layer did no work in this workload.
	layer map[string]float64
}

func newResult() *result {
	return &result{correct: true, e2e: map[string]float64{}, layer: map[string]float64{}}
}

// set records a per-layer metric.
func (r *result) set(name string, v float64) {
	r.layer[name] = v
}

// fail counts n failed operations and marks the run incorrect.
func (r *result) fail(n int64, format string, args ...any) {
	r.failed += n
	r.correct = false
	fmt.Fprintf(os.Stderr, "perfbench: FAIL: "+format+"\n", args...)
}

// runEnv is what every workload receives.
type runEnv struct {
	seed    int64
	seconds float64
	trace   bool
	out     string // directory for stores and span files
	host    *hostFacts
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*runEnv, *result) error{
	"sim-k8":      func(e *runEnv, r *result) error { return runSim(e, simK8, r) },
	"campaign-k4": func(e *runEnv, r *result) error { return runCampaign(e, campaignK4, r) },
	"svc-small":   func(e *runEnv, r *result) error { return runSvcSmall(e, svcSmallSize, r) },
	"svc-bulk":    func(e *runEnv, r *result) error { return runSvcBulk(e, svcBulkSize, r) },
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout))
}

func realMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: sim-k8, campaign-k4, svc-small or svc-bulk")
	seed := fs.Int64("seed", defaultSeed, fmt.Sprintf("input seed (held-out seed for confirming claims: %d)", heldOutSeed))
	seconds := fs.Float64("seconds", 10, "how long the measured phase runs")
	traceFlag := fs.Int("trace", 0, "1 = report per-layer metrics from an extra traced pass")
	spec := fs.String("spec", "BENCHMARK.json", "benchmark declaration (metric names and units)")
	out := fs.String("out", ".bench_build", "directory for stores, span files and other run output")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	decl, err := loadSpec(*spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	host, err := collectHostFacts(filepath.Dir(*spec))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	env := &runEnv{seed: *seed, seconds: *seconds, trace: *traceFlag == 1, out: *out, host: &host}
	res := newResult()
	if err := run(env, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	res.set("failed_ratio", ratio(float64(res.failed), float64(res.attempted)))
	line, err := decl.render(res, env.trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	hostLine, err := json.Marshal(map[string]any{"workload": *workload, "seed": *seed, "host": host})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if _, err := fmt.Fprintf(stdout, "%s\n%s\n", hostLine, line); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: write result:", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metricDecl is one metric of BENCHMARK.json.
type metricDecl struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// spec is the part of BENCHMARK.json the program reads: the metric
// names it must emit and their units.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

// namePattern is the form every emitted metric name must have.
var namePattern = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark declaration: %w", err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &s, nil
}

// render builds the result line: the declared metric set for the mode,
// every one of them measured and no undeclared name.
func (s *spec) render(res *result, traced bool) ([]byte, error) {
	decls, got := s.EndToEnd, res.e2e
	if traced {
		decls, got = s.PerLayer, res.layer
	}
	metrics := make(map[string]map[string]any, len(decls))
	for _, d := range decls {
		v, ok := got[d.Name]
		if !ok && traced {
			v, ok = 0, true // a layer this workload does not exercise
		}
		if !ok {
			return nil, fmt.Errorf("metric %q declared but not measured", d.Name)
		}
		metrics[d.Name] = map[string]any{"value": v, "unit": d.Unit}
	}
	var errs []error
	for name := range got {
		if _, ok := metrics[name]; !ok || !namePattern.MatchString(name) {
			errs = append(errs, fmt.Errorf("metric %q measured but not declared", name))
		}
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	attempted := res.attempted
	if attempted < 1 {
		return nil, fmt.Errorf("no operation attempted")
	}
	return json.Marshal(map[string]any{
		"correct": res.correct, "attempted": attempted, "failed": res.failed, "metrics": metrics,
	})
}

// sample is one repetition of a workload's unit of work.
type sample struct{ work, wall, cpu float64 }

// timer measures wall-clock and process CPU time over a region.
type timer struct {
	t0  time.Time
	cpu float64
}

func startTimer() timer {
	c, err := cpuSeconds()
	if err != nil {
		panic(err) // getrusage(RUSAGE_SELF) cannot fail on a valid buffer
	}
	return timer{t0: time.Now(), cpu: c}
}

func (t timer) stop(work float64) sample {
	wall := time.Since(t.t0).Seconds()
	c, err := cpuSeconds()
	if err != nil {
		panic(err)
	}
	return sample{work: work, wall: wall, cpu: c - t.cpu}
}

// minReps is the least number of repetitions a measured phase makes,
// however short --seconds is.
const minReps = 3

// measure repeats rep until seconds have passed (and at least minReps
// times), collecting the garbage of the previous repetition before each
// one so that every repetition starts from the same heap. The
// reference probe runs between repetitions, at most every probeGap.
func measure(seconds float64, rep func() (sample, error)) ([]sample, error) {
	var out []sample
	start := time.Now()
	var probed time.Time
	for len(out) < minReps || time.Since(start).Seconds() < seconds {
		if time.Since(probed) >= probeGap {
			if err := refProbe(); err != nil {
				return out, err
			}
			probed = time.Now()
		}
		runtime.GC()
		s, err := rep()
		if err != nil {
			return out, err
		}
		out = append(out, s)
	}
	return out, nil
}

// setupSeconds runs setup n times and returns the median wall-clock
// and the median CPU time of one set-up; the state of the last run is
// what the workload keeps. The reference probe runs before each one.
func setupSeconds(n int, setup func() error) (sample, error) {
	var walls, cpus []float64
	for i := 0; i < n; i++ {
		if err := refProbe(); err != nil {
			return sample{}, err
		}
		runtime.GC()
		t := startTimer()
		if err := setup(); err != nil {
			return sample{}, err
		}
		s := t.stop(0)
		walls = append(walls, s.wall)
		cpus = append(cpus, s.cpu)
	}
	return sample{wall: median(walls), cpu: median(cpus)}, nil
}

// setEndToEnd fills the end-to-end metrics every workload reports from
// its set-up time and measured repetitions. Throughput and set-up are
// gated in process CPU time converted to reference seconds (see
// refprobe.go). The plain wall-clock and CPU-time figures, and the
// probe's own time, are reported beside them, ungated.
func setEndToEnd(res *result, setup sample, samples []sample) error {
	var perS, perCPU []float64
	for _, s := range samples {
		perS = append(perS, s.work/s.wall)
		perCPU = append(perCPU, ratio(s.work, s.cpu))
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	slow := hostSlowdown()
	res.e2e["setup_s"] = setup.cpu / slow
	res.e2e["work_per_ref_cpu_s"] = median(perCPU) * slow
	res.e2e["peak_rss_mb"] = rss
	res.set("wall.setup_s", setup.wall)
	res.set("cpu.setup_s", setup.cpu)
	res.set("wall.work_per_s", median(perS))
	res.set("cpu.work_per_s", median(perCPU))
	res.set("host.ref_probe_ms", slow*refNominal*1e3)
	return nil
}

// setOverhead records the traced pass's wall-clock cost relative to the
// untraced median rate: 0.05 means tracing made the work 5% slower.
func setOverhead(res *result, tracedPerS float64) {
	res.set("trace.overhead_ratio", ratio(res.layer["wall.work_per_s"], tracedPerS)-1)
}

// writeSpans stores a traced pass's spans beside the other run output
// and records each layer's self time.
func writeSpans(e *runEnv, tr *tracer, workload string, res *result) error {
	for layer, s := range tr.selfSeconds() {
		res.set("self_s."+layer, s)
	}
	return tr.writeJSON(filepath.Join(e.out, fmt.Sprintf("spans-%s-seed%d.json", workload, e.seed)))
}
