package disco_test

// One benchmark per table/figure of the paper's evaluation (Section 4),
// plus the DESIGN.md §5 ablations and micro-benchmarks of the hot
// components. The figure benches run reduced-size simulations so a
// default `go test -bench=. -benchmem` stays affordable; full-fidelity
// numbers come from `go run ./cmd/discosim -exp all` (see EXPERIMENTS.md).

import (
	"math/rand"
	"testing"

	"github.com/disco-sim/disco/internal/compress"
	"github.com/disco-sim/disco/internal/disco"
	"github.com/disco-sim/disco/internal/energy"
	"github.com/disco-sim/disco/internal/experiments"
	"github.com/disco-sim/disco/internal/noc"
	"github.com/disco-sim/disco/internal/trace"
)

// benchOpts keeps one iteration around a second.
func benchOpts() experiments.Opts {
	return experiments.Opts{
		Ops: 1200, Warmup: 600, Seed: 1,
		Benchmarks: []string{"bodytrack", "canneal"},
	}
}

// BenchmarkTable1CompressionSchemes regenerates Table 1 (latency and
// compression-ratio parameters of every scheme).
func BenchmarkTable1CompressionSchemes(b *testing.B) {
	var last experiments.Table1Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table1(experiments.Opts{Benchmarks: []string{"bodytrack", "freqmine"}})
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	for _, row := range last.Rows {
		b.ReportMetric(row.Ratio, row.Scheme+"_ratio")
	}
}

// BenchmarkFig5DeltaLatency regenerates Figure 5: normalized on-chip data
// access latency with the paper's delta compressor.
func BenchmarkFig5DeltaLatency(b *testing.B) {
	var last experiments.LatencyResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.GMean.CC, "CC_norm_lat")
	b.ReportMetric(last.GMean.CNC, "CNC_norm_lat")
	b.ReportMetric(last.GMean.DISCO, "DISCO_norm_lat")
	b.ReportMetric(last.DiscoGainOverCC(), "gain_vs_CC_%")
}

// BenchmarkFig6FpcLatency regenerates the FPC half of Figure 6.
func BenchmarkFig6FpcLatency(b *testing.B) {
	benchFig6(b, "fpc")
}

// BenchmarkFig6Sc2Latency regenerates the SC² half of Figure 6.
func BenchmarkFig6Sc2Latency(b *testing.B) {
	benchFig6(b, "sc2")
}

func benchFig6(b *testing.B, alg string) {
	b.Helper()
	var last experiments.LatencyResult
	for i := 0; i < b.N; i++ {
		rs, err := experiments.Fig6(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		last = rs[alg]
	}
	b.ReportMetric(last.GMean.CC, "CC_norm_lat")
	b.ReportMetric(last.GMean.CNC, "CNC_norm_lat")
	b.ReportMetric(last.GMean.DISCO, "DISCO_norm_lat")
	b.ReportMetric(last.DiscoGainOverCC(), "gain_vs_CC_%")
	b.ReportMetric(last.DiscoGainOverCNC(), "gain_vs_CNC_%")
}

// BenchmarkFig7Energy regenerates Figure 7: normalized memory-subsystem
// energy (baseline = 1.0).
func BenchmarkFig7Energy(b *testing.B) {
	o := benchOpts()
	o.Benchmarks = []string{"canneal", "streamcluster"}
	var last experiments.EnergyResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig7(o)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.GMean.CC, "CC_norm_energy")
	b.ReportMetric(last.GMean.CNC, "CNC_norm_energy")
	b.ReportMetric(last.GMean.DISCO, "DISCO_norm_energy")
}

// BenchmarkFig8Scalability regenerates Figure 8: DISCO's gain over CC at
// 2x2 / 4x4 / 8x8 mesh sizes.
func BenchmarkFig8Scalability(b *testing.B) {
	o := benchOpts()
	o.Benchmarks = []string{"canneal"}
	var last experiments.ScaleResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8(o)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	for _, row := range last.Rows {
		b.ReportMetric(row.GainPct, sizeName(row.K)+"_gain_%")
	}
}

func sizeName(k int) string {
	switch k {
	case 2:
		return "2x2"
	case 4:
		return "4x4"
	case 8:
		return "8x8"
	}
	return "kxk"
}

// BenchmarkAreaOverhead regenerates the Section 4.3 area estimation.
func BenchmarkAreaOverhead(b *testing.B) {
	var r energy.AreaReport
	for i := 0; i < b.N; i++ {
		r = energy.Area("disco", 16, 4)
	}
	b.ReportMetric(r.OverheadVsRouterPct, "vs_router_%")
	b.ReportMetric(r.OverheadVsCachePct, "vs_cache_%")
	cnc := energy.Area("cnc", 16, 4)
	b.ReportMetric(cnc.EngineTotal/r.EngineTotal, "cnc_over_disco_x")
}

// BenchmarkAblationPolicies measures the DESIGN.md §5 DISCO policy
// ablations (non-blocking, separate compression, low-priority rule, ...).
func BenchmarkAblationPolicies(b *testing.B) {
	o := experiments.Opts{Ops: 1000, Warmup: 500, Seed: 1, Benchmarks: []string{"canneal"}}
	var last experiments.AblationResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.Ablation(o)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	for _, row := range last.Rows {
		b.ReportMetric(row.Normalized, row.Variant)
	}
}

// --- micro-benchmarks -------------------------------------------------------

// benchBlocks builds a deterministic mixed-content sample.
func benchBlocks() [][]byte {
	prof, _ := trace.ByName("bodytrack")
	out := make([][]byte, 256)
	for i := range out {
		out[i] = prof.Content(trace.PrivateBase(i%4) + uint64(i))
	}
	return out
}

func benchCompress(b *testing.B, alg compress.Algorithm) {
	b.Helper()
	blocks := benchBlocks()
	if s, ok := alg.(*compress.SC2); ok {
		s.Train(blocks)
	}
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		c := alg.Compress(blocks[i%len(blocks)])
		total += c.SizeBytes()
	}
	b.SetBytes(compress.BlockSize)
	_ = total
}

// BenchmarkCompressDelta measures the paper's delta codec throughput.
func BenchmarkCompressDelta(b *testing.B) { benchCompress(b, compress.NewDelta()) }

// BenchmarkCompressBDI measures the BΔI codec throughput.
func BenchmarkCompressBDI(b *testing.B) { benchCompress(b, compress.NewBDI()) }

// BenchmarkCompressFPC measures the FPC codec throughput.
func BenchmarkCompressFPC(b *testing.B) { benchCompress(b, compress.NewFPC()) }

// BenchmarkCompressCPack measures the C-Pack codec throughput.
func BenchmarkCompressCPack(b *testing.B) { benchCompress(b, compress.NewCPack()) }

// BenchmarkCompressSC2 measures the SC² codec throughput.
func BenchmarkCompressSC2(b *testing.B) { benchCompress(b, compress.NewSC2()) }

// BenchmarkCompressHybrid measures the fused probe-then-encode selection
// path: one shared scan feeds every probe-aware unit; only the winner
// (or a non-probe fallback like CPack) runs a full encode.
func BenchmarkCompressHybrid(b *testing.B) {
	s := compress.NewSC2()
	s.Train(benchBlocks())
	benchCompress(b, compress.NewHybrid(
		compress.NewDelta(), compress.NewBDI(), compress.NewFPC(), s))
}

// BenchmarkDecompressDelta measures delta decode throughput.
func BenchmarkDecompressDelta(b *testing.B) {
	alg := compress.NewDelta()
	blocks := benchBlocks()
	comp := make([]compress.Compressed, len(blocks))
	for i, blk := range blocks {
		comp[i] = alg.Compress(blk)
	}
	b.SetBytes(compress.BlockSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := alg.Decompress(comp[i%len(comp)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNoCStepIdle measures the simulator's per-cycle cost on an idle
// 4x4 mesh (the fast path the idle-router skip optimizes).
func BenchmarkNoCStepIdle(b *testing.B) {
	net, err := noc.New(noc.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Step()
	}
}

// BenchmarkNoCStepLoaded measures per-cycle cost under DISCO load.
func BenchmarkNoCStepLoaded(b *testing.B) {
	cfg := noc.DefaultConfig()
	dc := disco.DefaultConfig(compress.NewDelta())
	cfg.Disco = &dc
	net, err := noc.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	tc := noc.DefaultTraffic()
	tc.InjectionRate = 0.05
	gen := noc.NewTrafficGen(net, tc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Step()
		net.Step()
	}
}

// BenchmarkNoCStepMesh8Serial measures the per-cycle cost of a loaded
// 8x8 DISCO mesh on the two-phase engine.
func BenchmarkNoCStepMesh8Serial(b *testing.B) {
	cfg := noc.DefaultConfig()
	cfg.K = 8
	dc := disco.DefaultConfig(compress.NewDelta())
	cfg.Disco = &dc
	net, err := noc.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	tc := noc.DefaultTraffic()
	tc.InjectionRate = 0.08
	gen := noc.NewTrafficGen(net, tc)
	for i := 0; i < 500; i++ {
		gen.Step()
		net.Step()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Step()
		net.Step()
	}
}

// BenchmarkTraceGeneration measures workload-stream generation.
func BenchmarkTraceGeneration(b *testing.B) {
	prof, _ := trace.ByName("canneal")
	g := trace.NewGenerator(&prof, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Next()
	}
}

// BenchmarkBlockContent measures block materialization (pattern synth).
func BenchmarkBlockContent(b *testing.B) {
	prof, _ := trace.ByName("canneal")
	rng := rand.New(rand.NewSource(1))
	b.SetBytes(compress.BlockSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = prof.Content(uint64(rng.Intn(1 << 20)))
	}
}
