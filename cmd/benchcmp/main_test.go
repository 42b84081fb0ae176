package main

import (
	"regexp"
	"strings"
	"testing"
)

const oldBench = `
goos: linux
BenchmarkCompressDelta     	    2000	      1625 ns/op	  39.38 MB/s	     144 B/op	       3 allocs/op
BenchmarkCompressDelta     	    2000	      1980 ns/op	  32.32 MB/s	     144 B/op	       3 allocs/op
BenchmarkCompressFPC-8     	    2000	      6476 ns/op	      72 B/op	       7 allocs/op
BenchmarkNoCStepIdle       	    2000	      2736 ns/op
BenchmarkTraceGeneration   	    2000	       845.0 ns/op
BenchmarkTraceGeneration   	    2000	       691.0 ns/op
PASS
`

const newBench = `
BenchmarkCompressDelta-8   	    2000	      1100 ns/op	      80 B/op	       1 allocs/op
BenchmarkCompressFPC       	    2000	      7500 ns/op	      80 B/op	       1 allocs/op
BenchmarkNoCStepIdle-8     	    2000	      2800 ns/op
BenchmarkBlockContent      	    2000	     11618 ns/op
PASS
`

func parse(t *testing.T, s string) map[string]benchResult {
	t.Helper()
	m, err := parseBench(strings.NewReader(s))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestParseBench(t *testing.T) {
	m := parse(t, oldBench)
	if len(m) != 4 {
		t.Fatalf("parsed %d benches, want 4: %v", len(m), m)
	}
	// Repeated lines (from -count>1) keep the lowest ns/op, whichever
	// order they appear in.
	d := m["BenchmarkCompressDelta"]
	if d.NsPerOp != 1625 || d.BytesPerOp != 144 || d.AllocsPerOp != 3 {
		t.Errorf("CompressDelta = %+v", d)
	}
	// The -8 GOMAXPROCS suffix must be stripped so runs from different
	// machines compare.
	if _, ok := m["BenchmarkCompressFPC"]; !ok {
		t.Error("suffixed name BenchmarkCompressFPC-8 not normalized")
	}
	if n := m["BenchmarkNoCStepIdle"]; n.AllocsPerOp != -1 || n.BytesPerOp != -1 {
		t.Errorf("absent memory fields should be -1, got %+v", n)
	}
	if tg := m["BenchmarkTraceGeneration"]; tg.NsPerOp != 691.0 {
		t.Errorf("min-of-repeats / fractional ns/op parsed as %v", tg.NsPerOp)
	}
}

func TestCompareGate(t *testing.T) {
	old, cur := parse(t, oldBench), parse(t, newBench)
	gate := regexp.MustCompile(`Compress|NoCStep`)
	report, failed := compare(old, cur, gate, 10)
	// FPC regressed 6476 -> 7500 (+15.8%): must fail the 10% gate.
	if len(failed) != 1 || failed[0] != "BenchmarkCompressFPC" {
		t.Errorf("failed = %v, want [BenchmarkCompressFPC]", failed)
	}
	// Delta improved and NoCStepIdle regressed only 2.3%: both pass.
	if !strings.Contains(report, "REGRESSION") {
		t.Error("report should mark the regression")
	}
	if !strings.Contains(report, "(no baseline for BenchmarkBlockContent)") {
		t.Error("new-only benchmarks should be noted")
	}
	// TraceGeneration is absent from the new file: silently skipped from
	// the table but present in neither failure list.
	if strings.Contains(report, "TraceGeneration") {
		t.Error("benchmarks missing from the new run should not be compared")
	}
}

func TestCompareNoGate(t *testing.T) {
	old, cur := parse(t, oldBench), parse(t, newBench)
	_, failed := compare(old, cur, nil, 10)
	if len(failed) != 0 {
		t.Errorf("no gate should never fail, got %v", failed)
	}
}

const multiCPUBench = `
BenchmarkNoCStepMesh8Serial-4     	    2000	    120000 ns/op
PASS
`

const oneCPUBench = `
BenchmarkNoCStepMesh8Serial       	    2000	    120000 ns/op
PASS
`

func TestParseBenchProcs(t *testing.T) {
	m := parse(t, multiCPUBench)
	if p := m["BenchmarkNoCStepMesh8Serial"].Procs; p != 4 {
		t.Errorf("Procs = %d, want 4 from the -4 suffix", p)
	}
	if p := parse(t, oneCPUBench)["BenchmarkNoCStepMesh8Serial"].Procs; p != 1 {
		t.Errorf("Procs = %d, want 1 when the suffix is absent", p)
	}
}

func TestParseRequire(t *testing.T) {
	reqs, err := parseRequire("CompressSC2=50, BenchmarkNoCStepMesh8Serial=30")
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 2 {
		t.Fatalf("parsed %d requirements, want 2: %v", len(reqs), reqs)
	}
	// Names normalize to the Benchmark prefix either way.
	if reqs[0].name != "BenchmarkCompressSC2" || reqs[0].pct != 50 {
		t.Errorf("req[0] = %+v", reqs[0])
	}
	if reqs[1].name != "BenchmarkNoCStepMesh8Serial" || reqs[1].pct != 30 {
		t.Errorf("req[1] = %+v", reqs[1])
	}
	for _, bad := range []string{"", "NoEquals", "=50", "X=notanumber"} {
		if _, err := parseRequire(bad); err == nil {
			t.Errorf("parseRequire(%q) should error", bad)
		}
	}
}

func TestCheckRequired(t *testing.T) {
	old := parse(t, oldBench)
	cur := parse(t, newBench)
	// CompressDelta improved 1625 -> 1100 = 32.3%.
	reqs := []requirement{{name: "BenchmarkCompressDelta", pct: 30}}
	lines, failed, err := checkRequired(old, cur, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) != 0 {
		t.Errorf("32%% improvement must pass a 30%% floor: %v", failed)
	}
	if !strings.Contains(lines, "32.3% faster") {
		t.Errorf("report %q should carry the measured improvement", lines)
	}
	// A floor above the measured improvement fails.
	reqs[0].pct = 40
	if _, failed, _ := checkRequired(old, cur, reqs); len(failed) != 1 {
		t.Error("32%% improvement must fail a 40%% floor")
	}
	// A regression (FPC 6476 -> 7500) fails any positive floor.
	if _, failed, _ := checkRequired(old, cur,
		[]requirement{{name: "BenchmarkCompressFPC", pct: 10}}); len(failed) != 1 {
		t.Error("a regression must fail a required improvement")
	}
	// Missing benchmarks are hard errors, not silent passes.
	for _, name := range []string{"BenchmarkNope", "BenchmarkBlockContent"} {
		if _, _, err := checkRequired(old, cur, []requirement{{name: name, pct: 1}}); err == nil {
			t.Errorf("checkRequired(%s) should error on a missing side", name)
		}
	}
}

func TestDeltaPct(t *testing.T) {
	if d := deltaPct(100, 90); d != -10 {
		t.Errorf("deltaPct(100,90) = %v", d)
	}
	if d := deltaPct(0, 50); d != 0 {
		t.Errorf("deltaPct(0,50) = %v, want 0 (guard)", d)
	}
}
