// Package obs is the simulator's runtime observability layer: a
// stage-level wall-clock profiler for the two-phase cycle engine, a
// structured stderr reporter, and an HTTP endpoint serving metrics and
// live status.
//
// The package's hard invariant is that it is purely observational:
// nothing here may feed back into simulation state, so artifacts
// (traces, stats, metrics exports) are byte-identical with observability
// on or off — the golden gates in obs_test and internal/noc enforce it.
//
// obs is the repo's one sanctioned wall-clock island. The nodeterminism
// analyzer bans time.Now from every sim-core package but exempts this
// one: profiler samples are atomic adds that no simulation decision ever
// reads, so wall-clock values cannot perturb the simulated schedule. The
// phasesafety analyzer closes the loophole from the other side: calling
// into obs from compute-phase router code is a finding — sampling
// belongs to the Step driver, which brackets whole stages.
package obs

import (
	"sync/atomic"
	"time"
)

// Phase identifies one timed region of a Network.Step — the pipeline
// stages of the two-phase engine.
type Phase uint8

// Profiled phases.
const (
	// PhaseEngine is the DISCO engine-service compute stage.
	PhaseEngine Phase = iota
	// PhaseSA is the switch-allocation compute stage.
	PhaseSA
	// PhaseAlloc is the fused VA+RC+DISCO-arbitration compute stage.
	PhaseAlloc
	// PhaseCommit covers the commit halves (SA commit, arb commit).
	PhaseCommit
	// PhaseBarrier is kept so existing phase-indexed consumers stay
	// valid; the serial engine has no barrier and never records it.
	PhaseBarrier
	// PhaseOther is everything else in a Step: link-arrival prologue,
	// NI injection epilogue, metrics sampling.
	PhaseOther
	// NumPhases bounds the phase space.
	NumPhases
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case PhaseEngine:
		return "engine"
	case PhaseSA:
		return "sa"
	case PhaseAlloc:
		return "alloc"
	case PhaseCommit:
		return "commit"
	case PhaseBarrier:
		return "barrier"
	case PhaseOther:
		return "other"
	}
	return "phase(?)"
}

// Phases lists every phase in display order.
func Phases() []Phase {
	return []Phase{PhaseEngine, PhaseSA, PhaseAlloc, PhaseCommit, PhaseBarrier, PhaseOther}
}

// Clock returns a monotonic wall-clock stamp in nanoseconds. It is the
// sampling primitive the noc hooks use so that no sim-core package ever
// touches the time package directly.
func Clock() int64 { return int64(time.Since(clockEpoch)) }

// clockEpoch anchors Clock; only durations (differences of stamps) are
// ever used, so the epoch itself is arbitrary.
var clockEpoch = time.Now()

// PhaseProfiler accumulates wall-clock nanoseconds per pipeline phase.
// Writes are atomic adds from the Step driver; reads — Report, the HTTP
// status probe — may happen from any goroutine at any time and see a
// live picture, exact between Steps.
//
// A nil *PhaseProfiler is inert: the noc hooks check for nil before
// taking any stamp, so an unprofiled run pays one predictable branch per
// stage and nothing else.
type PhaseProfiler struct {
	ns    [NumPhases]atomic.Int64
	steps atomic.Uint64
	start int64
}

// NewPhaseProfiler returns a profiler. The argument is ignored; it
// remains for source compatibility with existing callers.
func NewPhaseProfiler(int) *PhaseProfiler {
	return &PhaseProfiler{start: Clock()}
}

// Observe adds the elapsed time since the start stamp to phase.
func (p *PhaseProfiler) Observe(phase Phase, start int64) {
	p.ns[phase].Add(Clock() - start)
}

// AddStep counts one completed Network.Step.
func (p *PhaseProfiler) AddStep() { p.steps.Add(1) }

// Steps returns the completed-step count.
func (p *PhaseProfiler) Steps() uint64 { return p.steps.Load() }

// Elapsed returns wall-clock nanoseconds since construction.
func (p *PhaseProfiler) Elapsed() int64 { return Clock() - p.start }

// TotalNS returns the accumulated nanoseconds of a phase.
func (p *PhaseProfiler) TotalNS(phase Phase) int64 { return p.ns[phase].Load() }
