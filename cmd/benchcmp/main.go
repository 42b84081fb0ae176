// Command benchcmp compares two `go test -bench` output files and prints
// a benchstat-style delta table. With -gate, benchmarks matching the
// regexp fail the run (exit 1) when their ns/op regresses by more than
// -max-regress percent — the guard rail `make bench-compare` puts around
// the simulator's hot paths.
//
// Usage:
//
//	benchcmp -baseline bench/bench.txt -new bench/new.txt \
//	    -gate 'Compress|NoCStep' -max-regress 10
//
// With -require 'Name=PCT,...', each named benchmark's ns/op must IMPROVE
// by at least PCT percent over the baseline ((old-new)/old*100 >= PCT) or
// the run fails — the inverse of -gate: it locks in a won optimization
// instead of merely bounding a regression.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// benchResult is one benchmark line's measurements.
type benchResult struct {
	NsPerOp     float64
	BytesPerOp  float64 // -1 when absent
	AllocsPerOp float64 // -1 when absent
	Procs       int     // GOMAXPROCS from the -N name suffix (1 when absent)
}

// benchLine matches `BenchmarkX-8  100  123.4 ns/op  ...`.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-(\d+))?\s+\d+\s+([0-9.]+) ns/op(.*)$`)

var (
	bytesField  = regexp.MustCompile(`([0-9.]+) B/op`)
	allocsField = regexp.MustCompile(`([0-9.]+) allocs/op`)
)

// parseBench extracts benchmark results from `go test -bench` output.
// Repeated lines for one name (from -count>1) keep the lowest ns/op: the
// minimum is the noise-floor statistic, so best-of-N runs compare stably
// on machines with jittery timers.
func parseBench(r io.Reader) (map[string]benchResult, error) {
	out := make(map[string]benchResult)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return nil, fmt.Errorf("benchcmp: bad ns/op in %q: %w", sc.Text(), err)
		}
		if prev, ok := out[m[1]]; ok && prev.NsPerOp <= ns {
			continue
		}
		res := benchResult{NsPerOp: ns, BytesPerOp: -1, AllocsPerOp: -1, Procs: 1}
		if m[2] != "" {
			res.Procs, _ = strconv.Atoi(m[2])
		}
		if bm := bytesField.FindStringSubmatch(m[4]); bm != nil {
			res.BytesPerOp, _ = strconv.ParseFloat(bm[1], 64)
		}
		if am := allocsField.FindStringSubmatch(m[4]); am != nil {
			res.AllocsPerOp, _ = strconv.ParseFloat(am[1], 64)
		}
		out[m[1]] = res
	}
	return out, sc.Err()
}

// deltaPct is the relative change from old to new in percent.
func deltaPct(old, new float64) float64 {
	if old == 0 {
		return 0
	}
	return (new - old) / old * 100
}

// compare renders the delta table and returns the gated benchmarks whose
// ns/op regressed beyond maxRegress percent.
func compare(old, new map[string]benchResult, gate *regexp.Regexp, maxRegress float64) (string, []string) {
	names := make([]string, 0, len(old))
	for n := range old {
		if _, ok := new[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "benchmark\told ns/op\tnew ns/op\tdelta\tallocs old\tallocs new")
	var failed []string
	for _, n := range names {
		o, nw := old[n], new[n]
		d := deltaPct(o.NsPerOp, nw.NsPerOp)
		allocOld, allocNew := "-", "-"
		if o.AllocsPerOp >= 0 {
			allocOld = strconv.FormatFloat(o.AllocsPerOp, 'f', -1, 64)
		}
		if nw.AllocsPerOp >= 0 {
			allocNew = strconv.FormatFloat(nw.AllocsPerOp, 'f', -1, 64)
		}
		mark := ""
		if gate != nil && gate.MatchString(n) && d > maxRegress {
			mark = "  << REGRESSION"
			failed = append(failed, n)
		}
		fmt.Fprintf(w, "%s\t%.1f\t%.1f\t%+.1f%%%s\t%s\t%s\n",
			strings.TrimPrefix(n, "Benchmark"), o.NsPerOp, nw.NsPerOp, d, mark, allocOld, allocNew)
	}
	w.Flush()
	for n := range new {
		if _, ok := old[n]; !ok {
			fmt.Fprintf(&b, "(no baseline for %s)\n", n)
		}
	}
	return b.String(), failed
}

// requirement is one -require entry: benchmark name and its improvement
// floor in percent.
type requirement struct {
	name string
	pct  float64
}

// parseRequire parses 'Name=PCT,Name=PCT,...' (names may omit the
// Benchmark prefix).
func parseRequire(spec string) ([]requirement, error) {
	var reqs []requirement
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 || kv[0] == "" {
			return nil, fmt.Errorf("benchcmp: bad -require entry %q, want Name=PCT", part)
		}
		pct, err := strconv.ParseFloat(kv[1], 64)
		if err != nil {
			return nil, fmt.Errorf("benchcmp: bad -require floor in %q: %w", part, err)
		}
		name := kv[0]
		if !strings.HasPrefix(name, "Benchmark") {
			name = "Benchmark" + name
		}
		reqs = append(reqs, requirement{name: name, pct: pct})
	}
	if len(reqs) == 0 {
		return nil, fmt.Errorf("benchcmp: empty -require spec %q", spec)
	}
	return reqs, nil
}

// checkRequired verifies each required benchmark improved its ns/op by at
// least its floor; improvement is (old-new)/old*100. Returns the report
// lines and the failed requirement names.
func checkRequired(old, cur map[string]benchResult, reqs []requirement) (string, []string, error) {
	var b strings.Builder
	var failed []string
	for _, rq := range reqs {
		o, ok := old[rq.name]
		if !ok {
			return "", nil, fmt.Errorf("benchcmp: -require benchmark %s missing from baseline", rq.name)
		}
		nw, ok := cur[rq.name]
		if !ok {
			return "", nil, fmt.Errorf("benchcmp: -require benchmark %s missing from new results", rq.name)
		}
		if o.NsPerOp == 0 {
			return "", nil, fmt.Errorf("benchcmp: -require benchmark %s has zero baseline ns/op", rq.name)
		}
		improved := (o.NsPerOp - nw.NsPerOp) / o.NsPerOp * 100
		mark := fmt.Sprintf("  [>= %.0f%% floor]", rq.pct)
		if improved < rq.pct {
			mark = fmt.Sprintf("  << BELOW %.0f%% FLOOR", rq.pct)
			failed = append(failed, rq.name)
		}
		fmt.Fprintf(&b, "require %s: %.1f%% faster%s\n",
			strings.TrimPrefix(rq.name, "Benchmark"), improved, mark)
	}
	return b.String(), failed, nil
}

func main() {
	var (
		baseline   = flag.String("baseline", "bench/bench.txt", "baseline `go test -bench` output")
		newFile    = flag.String("new", "", "new `go test -bench` output (required)")
		gateExpr   = flag.String("gate", "", "regexp of benchmarks that fail the run on regression")
		maxRegress = flag.Float64("max-regress", 10, "allowed ns/op regression for gated benchmarks, percent")
		requireStr = flag.String("require", "", "'Name=PCT,...': each benchmark must improve ns/op by at least PCT percent over the baseline")
	)
	flag.Parse()
	if *newFile == "" {
		fmt.Fprintln(os.Stderr, "benchcmp: -new is required")
		flag.Usage()
		os.Exit(2)
	}
	old, err := parseFile(*baseline)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	cur, err := parseFile(*newFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var gate *regexp.Regexp
	if *gateExpr != "" {
		gate, err = regexp.Compile(*gateExpr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchcmp: bad -gate:", err)
			os.Exit(2)
		}
	}
	report, failed := compare(old, cur, gate, *maxRegress)
	fmt.Print(report)
	var unmet []string
	if *requireStr != "" {
		reqs, err := parseRequire(*requireStr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		lines, miss, err := checkRequired(old, cur, reqs)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Print(lines)
		unmet = miss
	}
	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "benchcmp: %d gated benchmark(s) regressed more than %.0f%%: %s\n",
			len(failed), *maxRegress, strings.Join(failed, ", "))
		os.Exit(1)
	}
	if len(unmet) > 0 {
		fmt.Fprintf(os.Stderr, "benchcmp: %d required improvement(s) not met: %s\n",
			len(unmet), strings.Join(unmet, ", "))
		os.Exit(1)
	}
}

// parseFile parses one bench output file.
func parseFile(path string) (map[string]benchResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("benchcmp: %w", err)
	}
	defer f.Close()
	return parseBench(f)
}
