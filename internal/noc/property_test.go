package noc

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/disco-sim/disco/internal/fault"
)

// propertySeed seeds the trial generator. Trials are derived from it
// deterministically and each trial logs its full configuration, so a
// failing trial can be replayed exactly.
const propertySeed = 0xD15C0

// checkCreditInvariants asserts, at a commit boundary, that no VC has a
// negative conserved counter and none is overbooked beyond its buffer
// depth — the "credits never go negative" property in both directions.
func checkCreditInvariants(t *testing.T, n *Network, cycle uint64) {
	t.Helper()
	depth := n.Config().BufDepth
	for _, r := range n.Routers {
		r.eachVC(func(p Port, v int, e *vcBuf) {
			if e.stored < 0 || e.reserved < 0 || e.lostCredits < 0 {
				t.Fatalf("cycle %d r%d port%d/vc%d: negative counters stored=%d reserved=%d lostCredits=%d",
					cycle, r.id, int(p), v, e.stored, e.reserved, e.lostCredits)
			}
			// Physical slots never exceed the buffer depth. occupancy()
			// may: a fault-dropped credit (lostCredits) overbooks the VC
			// from the upstream's view on purpose, until recovery.
			if phys := e.stored + e.reserved; phys > depth {
				t.Fatalf("cycle %d r%d port%d/vc%d: %d physical slots exceed buffer depth %d (a credit went negative)",
					cycle, r.id, int(p), v, phys, depth)
			}
		})
	}
}

// inFlightPackets returns the set of distinct packets anywhere in the
// network: NI queues and streams, input VCs, and flits on links. A
// wormhole packet can be visible in several places at once, hence the
// set rather than a sum.
func inFlightPackets(n *Network) map[*Packet]bool {
	set := make(map[*Packet]bool)
	for i := range n.ni {
		for _, p := range n.ni[i].queue[n.ni[i].qhead:] {
			set[p] = true
		}
		for _, p := range n.ni[i].stream {
			if p != nil {
				set[p] = true
			}
		}
	}
	for _, r := range n.Routers {
		r.eachVC(func(_ Port, _ int, e *vcBuf) {
			if e.pkt != nil {
				set[e.pkt] = true
			}
		})
	}
	for _, a := range n.pending {
		set[a.pkt] = true
	}
	return set
}

// checkConservation asserts packets injected = ejected + in flight.
func checkConservation(t *testing.T, n *Network, cycle uint64) {
	t.Helper()
	st := n.Stats()
	inflight := uint64(len(inFlightPackets(n)))
	if st.Injected != st.Ejected+inflight {
		t.Fatalf("cycle %d: conservation violated: injected %d != ejected %d + in-flight %d",
			cycle, st.Injected, st.Ejected, inflight)
	}
}

// runConservationTrial drives one randomized load, checking the
// conservation properties at commit boundaries throughout and the
// reclamation properties after the drain.
func runConservationTrial(t *testing.T, cfg Config, tc TrafficConfig) {
	t.Helper()
	n := mustNet(t, cfg)
	g := NewTrafficGen(n, tc)
	for cycle := 0; cycle < 1200; cycle++ {
		g.Step()
		n.Step()
		if cycle%64 == 0 {
			checkCreditInvariants(t, n, n.Cycle)
			checkConservation(t, n, n.Cycle)
		}
	}
	if !n.RunUntilQuiescent(200000) {
		t.Fatal("network did not drain")
	}
	checkCreditInvariants(t, n, n.Cycle)
	st := n.Stats()
	if st.Injected != st.Ejected {
		t.Errorf("after drain: injected %d != ejected %d", st.Injected, st.Ejected)
	}
	if in := len(inFlightPackets(n)); in != 0 {
		t.Errorf("after drain: %d packets still in flight", in)
	}
	// Shadow-packet slots always reclaimed: no VC may keep an engine
	// lock, absorbed payload, or buffer slots once its packet is gone.
	for _, r := range n.Routers {
		r.eachVC(func(p Port, v int, e *vcBuf) {
			if e.pkt != nil || e.lock != lockNone || e.absorbed != 0 || e.stored != 0 || e.reserved != 0 {
				t.Errorf("r%d port%d/vc%d not reclaimed after drain: pkt=%v lock=%d absorbed=%d stored=%d reserved=%d",
					r.id, int(p), v, e.pkt != nil, e.lock, e.absorbed, e.stored, e.reserved)
			}
		})
	}
}

// TestConservationProperties is the property-based layer of the golden
// suite: randomized (seed-logged) loads across patterns, rates, mesh
// sizes and one fault configuration, asserting the quick-check style
// invariants — flits injected = ejected + in flight, credits never
// negative, shadow slots always reclaimed.
func TestConservationProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(propertySeed))
	t.Logf("property trial generator seed: %#x", propertySeed)
	patterns := []Pattern{Uniform, Transpose, Hotspot, BitComplement}
	for trial := 0; trial < 6; trial++ {
		cfg := discoConfig()
		if trial == 3 {
			cfg.K = 8
		}
		if trial == 5 {
			cfg.Fault = &fault.Spec{Seed: rng.Int63(), EngineRate: 0.02, EngineStuck: 8,
				BreakerK: 4, BreakerCooldown: 64,
				PayloadRate: 0.005, CreditRate: 0.005, CreditRecovery: 32}
		}
		tc := TrafficConfig{
			Pattern:              patterns[rng.Intn(len(patterns))],
			InjectionRate:        0.01 + 0.07*rng.Float64(),
			DataFraction:         0.3 + 0.6*rng.Float64(),
			CompressibleFraction: 0.3 + 0.6*rng.Float64(),
			HotNode:              rng.Intn(cfg.Nodes()),
			Seed:                 rng.Int63(),
		}
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			t.Logf("K=%d fault=%v traffic=%+v", cfg.K, cfg.Fault != nil, tc)
			runConservationTrial(t, cfg, tc)
		})
	}
}
