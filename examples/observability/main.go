// observability demonstrates the telemetry layer end to end: attach a
// metrics registry and a binary tracer to one DISCO run, export the
// registry as JSON + time-series CSV, and analyze the trace in-process
// the way cmd/discotrace does — per-packet latency breakdown and the
// engine-overlap ratio from Section 3.2 of the paper.
//
// CLI equivalent:
//
//	go run ./cmd/discosim -run disco -benchmark canneal \
//	    -metrics metrics.json -trace-bin trace.bin
//	go run ./cmd/discotrace trace.bin
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"

	"github.com/disco-sim/disco/internal/cmp"
	"github.com/disco-sim/disco/internal/compress"
	"github.com/disco-sim/disco/internal/metrics"
	"github.com/disco-sim/disco/internal/noc"
	"github.com/disco-sim/disco/internal/trace"
	"github.com/disco-sim/disco/internal/tracefmt"
)

func main() {
	prof, ok := trace.ByName("canneal")
	if !ok {
		log.Fatal("benchmark canneal not found")
	}
	alg, err := compress.New("delta")
	if err != nil {
		log.Fatal(err)
	}
	cfg := cmp.DefaultConfig(cmp.DISCO, alg, prof)
	cfg.OpsPerCore = 2000
	cfg.WarmupOps = 1000

	sys, err := cmp.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Telemetry attachment 1: the metrics registry, sampled every 512
	// simulated cycles.
	reg := metrics.NewRegistry()
	sys.AttachMetrics(reg, 512)

	// Telemetry attachment 2: a binary event trace, kept in memory here;
	// discosim -trace-bin streams the same bytes to a file.
	var binTrace bytes.Buffer
	ncfg := sys.Network().Config()
	bt := noc.NewBinaryTracer(&binTrace, ncfg.Nodes())
	sys.Network().SetTracer(bt)

	r, err := sys.Run()
	if err != nil {
		log.Fatal(err)
	}
	if err := bt.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ran %s/DISCO: on-chip miss latency %.2f cyc, %d trace records, %d bytes\n\n",
		cfg.Profile.Name, r.AvgMissLatency, bt.Count, binTrace.Len())

	// The registry snapshot: counters evaluated after the run.
	snap := reg.Snapshot()
	fmt.Println("selected counters from the metrics registry:")
	for _, name := range []string{
		"noc.injected", "noc.flit_hops", "noc.compressions",
		"noc.engine_releases", "cmp.l2_misses", "cmp.residual_conversions",
	} {
		fmt.Printf("  %-26s %d\n", name, snap.Counters[name])
	}
	fmt.Printf("  %-26s %.3f\n\n", "noc.overlap_ratio", snap.Gauges["noc.overlap_ratio"])

	fmt.Printf("time series: %d columns x %d rows at %d-cycle interval "+
		"(reg.WriteSeriesCSV for the full table)\n\n",
		len(snap.Series.Columns), len(snap.Series.Rows), snap.Series.IntervalCycles)

	// Replay the trace the way discotrace does: pair injects with ejects
	// and split each packet's latency into queue / serialization / engine.
	if err := replay(&binTrace); err != nil {
		log.Fatal(err)
	}
}

// replay decodes the binary trace and prints the aggregate breakdown.
func replay(raw io.Reader) error {
	rd, err := tracefmt.NewReader(raw)
	if err != nil {
		return err
	}
	inject := map[uint64]uint64{}
	var pkts, totalSum, queueSum, serialSum, engineSum uint64
	var busySum, exposedSum uint64
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if !rec.HasPacket {
			continue
		}
		switch rec.Kind {
		case tracefmt.KindInject:
			inject[rec.Pkt.ID] = rec.Cycle
		case tracefmt.KindEject:
			start, ok := inject[rec.Pkt.ID]
			if !ok {
				continue
			}
			delete(inject, rec.Pkt.ID)
			total := rec.Cycle - start
			stall := min(rec.Pkt.Queueing, total)
			engine := min(rec.Pkt.EngineStall, stall)
			pkts++
			totalSum += total
			queueSum += stall - engine
			serialSum += total - stall
			engineSum += engine
			busySum += rec.Pkt.EngineCycles
			exposedSum += engine
		}
	}
	if pkts == 0 {
		return fmt.Errorf("trace contains no delivered packets")
	}
	f := func(v uint64) float64 { return float64(v) / float64(pkts) }
	fmt.Printf("trace replay: %d delivered packets\n", pkts)
	fmt.Printf("  mean latency %.2f = queue %.2f + serialization %.2f + engine %.2f cyc\n",
		f(totalSum), f(queueSum), f(serialSum), f(engineSum))
	if busySum > 0 {
		fmt.Printf("  engine overlap: %d of %d engine cycles hidden (ratio %.2f)\n",
			busySum-exposedSum, busySum,
			float64(busySum-exposedSum)/float64(busySum))
	}
	return nil
}
