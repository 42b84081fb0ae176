package noc

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"github.com/disco-sim/disco/internal/metrics"
)

// runSeededLoad drives a DISCO-equipped network under a seeded synthetic
// load and returns the full event trace plus the final counters. Two
// calls with the same seed must be indistinguishable: the simulator has
// no other entropy source (enforced by the nodeterminism analyzer).
func runSeededLoad(t *testing.T, seed int64) (string, Stats) {
	t.Helper()
	return runSeededLoadCfg(t, discoConfig(), seed)
}

// runSeededLoadCfg is runSeededLoad with an explicit network config, so
// fault-injection tests can reuse the same deterministic load.
func runSeededLoadCfg(t *testing.T, cfg Config, seed int64) (string, Stats) {
	t.Helper()
	n := mustNet(t, cfg)
	var sb strings.Builder
	n.SetTracer(&WriterTracer{W: &sb})
	tc := DefaultTraffic()
	tc.Seed = seed
	tc.InjectionRate = 0.05
	g := NewTrafficGen(n, tc)
	for cycle := 0; cycle < 2000; cycle++ {
		g.Step()
		n.Step()
	}
	if !n.RunUntilQuiescent(100000) {
		t.Fatal("network did not drain")
	}
	return sb.String(), n.Stats()
}

// TestSameSeedByteIdenticalTrace is the determinism regression gate:
// identical seeds must give byte-identical traces and equal statistics.
func TestSameSeedByteIdenticalTrace(t *testing.T) {
	trace1, stats1 := runSeededLoad(t, 42)
	trace2, stats2 := runSeededLoad(t, 42)
	if trace1 == "" {
		t.Fatal("empty trace; load generated no events")
	}
	if trace1 != trace2 {
		diffTraces(t, "same seed", trace1, trace2)
	}
	if !reflect.DeepEqual(stats1, stats2) {
		t.Errorf("stats differ between identical runs:\n  run1: %+v\n  run2: %+v", stats1, stats2)
	}
}

// runInstrumentedLoad is runSeededLoad with the full telemetry surface
// attached: a metrics registry (JSON + series CSV exports) and a binary
// tracer. It returns all three serialized artifacts.
func runInstrumentedLoad(t *testing.T, seed int64) (metricsJSON, seriesCSV, binTrace []byte) {
	t.Helper()
	return runInstrumentedLoadCfg(t, discoConfig(), seed)
}

// runInstrumentedLoadCfg is runInstrumentedLoad with an explicit config.
func runInstrumentedLoadCfg(t *testing.T, cfg Config, seed int64) (metricsJSON, seriesCSV, binTrace []byte) {
	t.Helper()
	n := mustNet(t, cfg)
	reg := metrics.NewRegistry()
	n.AttachMetrics(reg, 128)
	var bin bytes.Buffer
	bt := NewBinaryTracer(&bin, cfg.Nodes())
	n.SetTracer(bt)
	tc := DefaultTraffic()
	tc.Seed = seed
	tc.InjectionRate = 0.05
	g := NewTrafficGen(n, tc)
	for cycle := 0; cycle < 2000; cycle++ {
		g.Step()
		n.Step()
	}
	if !n.RunUntilQuiescent(100000) {
		t.Fatal("network did not drain")
	}
	if err := bt.Close(); err != nil {
		t.Fatalf("tracer close: %v", err)
	}
	var mj, sc bytes.Buffer
	if err := reg.WriteJSON(&mj); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if err := reg.WriteSeriesCSV(&sc); err != nil {
		t.Fatalf("WriteSeriesCSV: %v", err)
	}
	return mj.Bytes(), sc.Bytes(), bin.Bytes()
}

// TestSameSeedByteIdenticalTelemetry extends the determinism gate to the
// telemetry layer: same-seed runs must export byte-identical metrics
// JSON, time-series CSV and binary traces. Any map-ordered or
// wall-clock-tainted path through the exporters breaks this.
func TestSameSeedByteIdenticalTelemetry(t *testing.T) {
	mj1, sc1, bin1 := runInstrumentedLoad(t, 42)
	mj2, sc2, bin2 := runInstrumentedLoad(t, 42)
	if len(mj1) == 0 || len(sc1) == 0 || len(bin1) == 0 {
		t.Fatalf("empty artifact: metrics=%d series=%d trace=%d bytes",
			len(mj1), len(sc1), len(bin1))
	}
	if !bytes.Equal(mj1, mj2) {
		t.Error("metrics JSON differs between identical runs")
	}
	if !bytes.Equal(sc1, sc2) {
		t.Error("time-series CSV differs between identical runs")
	}
	if !bytes.Equal(bin1, bin2) {
		if len(bin1) != len(bin2) {
			t.Fatalf("binary traces differ in length: %d vs %d bytes", len(bin1), len(bin2))
		}
		for i := range bin1 {
			if bin1[i] != bin2[i] {
				t.Fatalf("binary traces diverge at byte %d", i)
			}
		}
	}
}

// TestDifferentSeedsDiverge guards the guard: if seeds were ignored the
// identical-trace test above would pass vacuously.
func TestDifferentSeedsDiverge(t *testing.T) {
	trace1, _ := runSeededLoad(t, 1)
	trace2, _ := runSeededLoad(t, 2)
	if trace1 == trace2 {
		t.Error("different seeds produced identical traces; the seed is not reaching the load")
	}
}

// diffTraces fails the test at the first diverging line of two traces,
// rather than dumping megabytes of trace.
func diffTraces(t *testing.T, label, want, got string) {
	t.Helper()
	lw := strings.Split(want, "\n")
	lg := strings.Split(got, "\n")
	for i := 0; i < len(lw) && i < len(lg); i++ {
		if lw[i] != lg[i] {
			t.Fatalf("%s: traces diverge at line %d:\n  want: %s\n  got:  %s",
				label, i+1, lw[i], lg[i])
		}
	}
	t.Fatalf("%s: traces differ in length: %d vs %d lines", label, len(lw), len(lg))
}
