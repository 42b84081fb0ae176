// Package fixture exercises the phasesafety analyzer: the two-phase
// engine's compute-phase write contract. Methods named compute* are the
// roots; they may write only their own router's state, and may not read
// the sanctioned wall-clock island (internal/obs). commit* methods and
// the (*Router).trace staging wrapper are exempt.
package fixture

import "github.com/disco-sim/disco/internal/obs"

// Packet is payload state that can be visible to several routers.
type Packet struct{ hops int }

// vcState is one virtual-channel slot.
type vcState struct {
	pkt      *Packet
	reserved int
}

// Network mimics the sim's global state root.
type Network struct {
	Routers []*Router
	cycle   uint64
	events  int
}

// trace is the Network-level emitter; only commit phases may call it.
func (n *Network) trace(id int, kind string, p *Packet) {
	n.events++
}

// Router is the per-node unit; a compute phase owns exactly one.
type Router struct {
	id       int
	net      *Network
	in       [][]*vcState
	stalls   int
	staged   []int
	traceBuf []string
}

// trace stages an event (the sanctioned compute-phase path).
func (r *Router) trace(kind string, p *Packet) {
	r.traceBuf = append(r.traceBuf, kind)
}

// downstream returns a neighboring router (foreign state).
func (r *Router) downstream() *Router {
	return r.net.Routers[(r.id+1)%len(r.net.Routers)]
}

// bump mutates its receiver.
func (r *Router) bump() { r.stalls++ }

// touch mutates its Router parameter.
func touch(d *Router) { d.stalls++ }

// computeOwn writes only its own state and stages its trace (allowed).
func (r *Router) computeOwn() {
	r.stalls++
	r.staged = append(r.staged, r.id)
	r.in[0][0].reserved++
	r.trace("own", nil)
}

// computeCross writes a neighbor's field directly (forbidden).
func (r *Router) computeCross() {
	d := r.net.Routers[r.id+1]
	d.stalls++ // want "compute-phase write to another router"
}

// computeAlias writes foreign state through a local alias chain
// (forbidden: provenance survives the rebinding).
func (r *Router) computeAlias() {
	d := r.downstream()
	e := d.in[0][0]
	e.reserved++ // want "compute-phase write to another router"
}

// computeGlobal writes Network-global state (forbidden).
func (r *Router) computeGlobal() {
	r.net.cycle++ // want "compute-phase write to Network-global state"
}

// computeEmit emits a trace directly instead of staging (forbidden).
func (r *Router) computeEmit() {
	r.net.trace(r.id, "emit", nil) // want "direct trace emission from compute phase"
}

// computeMutateCall mutates a foreign router through a method whose
// write is one call deep (forbidden: mutation facts propagate).
func (r *Router) computeMutateCall() {
	r.downstream().bump() // want "mutates another router"
}

// computeMutateArg passes a foreign router into a mutating parameter
// slot (forbidden).
func (r *Router) computeMutateArg() {
	touch(r.net.Routers[0]) // want "mutates another router through argument"
}

// computeDeep reaches a violating helper two calls down; the finding
// lands at the helper's write site.
func (r *Router) computeDeep() { r.spill() }

func (r *Router) spill() {
	r.net.Routers[0].stalls++ // want "compute-phase write to another router"
}

// computeTimed reads the observability clock from compute code
// (forbidden: per-router wall-clock reads skew the phase attribution
// the profiler reports; only the engine driver may bracket stages).
func (r *Router) computeTimed() {
	start := obs.Clock() // want "compute-phase call to obs.Clock"
	r.stalls += int(start & 1)
}

// computeObserved reaches the profiler through a helper one call down;
// the finding lands at the helper's call site.
func (r *Router) computeObserved(p *obs.PhaseProfiler) { r.sample(p) }

func (r *Router) sample(p *obs.PhaseProfiler) {
	p.Observe(obs.PhaseEngine, 0) // want "compute-phase call to obs.Observe"
}

// commitTimed reads the clock from the serial half (allowed: traversal
// prunes at commit*, whose cross-cutting effects are sanctioned).
func (r *Router) commitTimed() {
	r.stalls += int(obs.Clock() & 1)
}

// driverStep is not a compute root, so its obs use is the sanctioned
// driver-side pattern and produces no finding.
func (r *Router) driverStep(p *obs.PhaseProfiler) {
	start := obs.Clock()
	r.computeOwn()
	p.Observe(obs.PhaseEngine, start)
}

// computeThenCommit hands off to the serial half; traversal prunes at
// commit* so the cross-router writes below are allowed.
func (r *Router) computeThenCommit() {
	r.commitApply()
}

// commitApply is the commit phase: cross-router effects are its job.
func (r *Router) commitApply() {
	r.net.Routers[0].stalls++
	r.net.cycle++
	r.net.trace(r.id, "commit", nil)
}
