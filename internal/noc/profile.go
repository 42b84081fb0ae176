package noc

import "github.com/disco-sim/disco/internal/obs"

// This file is the network's attachment point for the obs stage-level
// wall-clock profiler. The hooks obey two standing invariants:
//
//   - Purely observational: the profiler only ever RECEIVES timestamps;
//     no simulation decision reads them, so artifacts are byte-identical
//     with profiling on or off (the golden gates assert it).
//   - Alloc-free: every hook is a nil-guarded int64 stamp — Step's
//     hot-path no-allocation contract (discolint hotalloc) holds with
//     profiling armed or not.
//
// Wall-clock access itself lives behind obs.Clock: internal/obs is the
// one package the nodeterminism analyzer sanctions for time.Now, and
// sim-core never touches the time package directly.

// AttachProfiler arms stage-level profiling for subsequent Steps; nil
// disarms it.
func (n *Network) AttachProfiler(p *obs.PhaseProfiler) { n.prof = p }

// Profiler returns the attached profiler (nil when disarmed).
func (n *Network) Profiler() *obs.PhaseProfiler { return n.prof }

// profClock returns a wall-clock stamp when profiling is armed, else 0.
func (n *Network) profClock() int64 {
	if n.prof == nil {
		return 0
	}
	return obs.Clock()
}

// profMark attributes the span since start to ph and returns a fresh
// stamp for the next region; a no-op returning 0 when profiling is
// disarmed.
func (n *Network) profMark(ph obs.Phase, start int64) int64 {
	if n.prof == nil {
		return 0
	}
	n.prof.Observe(ph, start)
	return obs.Clock()
}
