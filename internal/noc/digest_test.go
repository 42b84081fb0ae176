package noc

import (
	"bytes"
	"flag"
	"fmt"
	"strings"
	"testing"

	"github.com/disco-sim/disco/internal/fault"
	"github.com/disco-sim/disco/internal/golden"
	"github.com/disco-sim/disco/internal/metrics"
)

// --- Golden digest suite ------------------------------------------------
//
// Every serialized artifact of the cycle engine — text trace, Stats,
// metrics JSON, series CSV and binary trace — is pinned by SHA-256 in
// testdata/golden.sha256 for a set of seeded loads spanning mesh sizes,
// traffic patterns and fault injection. An engine refactor that claims
// to preserve semantics must leave every digest unchanged; a deliberate
// model change re-pins them with
//
//	go test ./internal/noc -run Golden -update

var updateDigests = flag.Bool("update", false, "re-pin testdata/golden.sha256 from the current engine")

const digestFile = "testdata/golden.sha256"

// goldenCases spans the configuration axes of the pinned loads.
var goldenCases = []struct {
	name    string
	cfg     func() Config
	traffic func() TrafficConfig
}{
	{"mesh4-uniform", discoConfig, func() TrafficConfig {
		tc := DefaultTraffic()
		tc.Seed, tc.InjectionRate = 42, 0.06
		return tc
	}},
	{"mesh4-hotspot", discoConfig, func() TrafficConfig {
		tc := DefaultTraffic()
		tc.Pattern, tc.HotNode = Hotspot, 5
		tc.Seed, tc.InjectionRate = 7, 0.05
		return tc
	}},
	{"mesh8-transpose", func() Config {
		cfg := discoConfig()
		cfg.K = 8
		return cfg
	}, func() TrafficConfig {
		tc := DefaultTraffic()
		tc.Pattern = Transpose
		tc.Seed, tc.InjectionRate = 11, 0.04
		return tc
	}},
	{"mesh4-faults", func() Config {
		return faultConfig(fault.Spec{Seed: 9, EngineRate: 0.05, EngineStuck: 8,
			BreakerK: 3, BreakerCooldown: 64,
			PayloadRate: 0.01, CreditRate: 0.01, CreditRecovery: 32})
	}, func() TrafficConfig {
		tc := DefaultTraffic()
		tc.Seed, tc.InjectionRate = 13, 0.06
		return tc
	}},
}

// driveGolden runs 1500 cycles of tc's load on cfg plus the drain, with
// the given tracer and metrics registry attached (either may be nil),
// and returns the final counters.
func driveGolden(t *testing.T, cfg Config, tc TrafficConfig, tr Tracer, reg *metrics.Registry) Stats {
	t.Helper()
	n := mustNet(t, cfg)
	if reg != nil {
		n.AttachMetrics(reg, 128)
	}
	if tr != nil {
		n.SetTracer(tr)
	}
	g := NewTrafficGen(n, tc)
	for cycle := 0; cycle < 1500; cycle++ {
		g.Step()
		n.Step()
	}
	if !n.RunUntilQuiescent(100000) {
		t.Fatal("network did not drain")
	}
	return n.Stats()
}

// TestGoldenByteIdentity pins the text trace of each golden load and
// the Stats of the same load run bare — no tracer, no metrics — so both
// the observed and the unobserved engine paths are covered.
func TestGoldenByteIdentity(t *testing.T) {
	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			var sb strings.Builder
			driveGolden(t, c.cfg(), c.traffic(), &WriterTracer{W: &sb}, nil)
			golden.Pin(t, digestFile, c.name+"/trace", []byte(sb.String()), *updateDigests)
			st := driveGolden(t, c.cfg(), c.traffic(), nil, nil)
			golden.Pin(t, digestFile, c.name+"/stats", []byte(fmt.Sprintf("%+v", st)), *updateDigests)
		})
	}
}

// TestGoldenTelemetry pins the telemetry exports of each golden load:
// metrics JSON, time-series CSV and the binary trace.
func TestGoldenTelemetry(t *testing.T) {
	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg()
			reg := metrics.NewRegistry()
			var bin bytes.Buffer
			bt := NewBinaryTracer(&bin, cfg.Nodes())
			driveGolden(t, cfg, c.traffic(), bt, reg)
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
			golden.Pin(t, digestFile, c.name+"/metrics.json", mj.Bytes(), *updateDigests)
			golden.Pin(t, digestFile, c.name+"/series.csv", sc.Bytes(), *updateDigests)
			golden.Pin(t, digestFile, c.name+"/trace.bin", bin.Bytes(), *updateDigests)
		})
	}
}
