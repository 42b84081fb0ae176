package noc

import (
	"bufio"
	"fmt"
	"io"
)

// Tracer receives structured simulator events. Attach one with
// Network.SetTracer to debug routing, arbitration and DISCO engine
// decisions; the zero-overhead default is no tracer.
type Tracer interface {
	// Event is called with the cycle, the router (or -1 for NI-level
	// events), a short event kind, and the packet involved (may be nil).
	Event(cycle uint64, router int, kind string, pkt *Packet)
}

// Event kinds emitted by the simulator.
const (
	EvInject        = "inject"         // packet entered an NI queue
	EvEject         = "eject"          // packet fully delivered
	EvRoute         = "route"          // RC computed an output port
	EvVAGrant       = "va-grant"       // downstream VC allocated
	EvSAGrant       = "sa-grant"       // first flit crossed the switch
	EvEngineStart   = "engine-start"   // DISCO job started (pending)
	EvEngineCommit  = "engine-commit"  // shadow dropped, job committed
	EvEngineDone    = "engine-done"    // transform applied
	EvEngineRelease = "engine-release" // shadow released (mis-prediction)
	EvEngineFail    = "engine-fail"    // incompressible content

	// Fault-injection and resilience events (internal/fault; emitted only
	// when an injector is armed, so fault-free traces are unchanged).
	EvEngineFault  = "engine-fault"  // injected engine fault (stuck-busy abort)
	EvBreakerTrip  = "breaker-trip"  // engine circuit breaker opened (bypass)
	EvBreakerArm   = "breaker-rearm" // breaker cooldown elapsed; engine re-enabled
	EvPayloadFlip  = "payload-flip"  // injected bit-flip in a compressed payload
	EvFaultRecover = "fault-recover" // corrupt payload recovered via the original
	EvCreditDrop   = "credit-drop"   // injected credit loss on a link
	EvStall        = "stall"         // watchdog diagnostic (in-flight packet dump)
)

// SetTracer attaches t (nil detaches).
func (n *Network) SetTracer(t Tracer) { n.tracer = t }

// trace records the event in the packet's lifetime record and emits it
// if a tracer is attached.
func (n *Network) trace(router int, kind string, pkt *Packet) {
	if pkt != nil {
		pkt.Life.observe(kind, n.Cycle)
	}
	if n.tracer != nil {
		n.tracer.Event(n.Cycle, router, kind, pkt)
	}
}

// trace records an event from router code. Compute halves emit through
// this wrapper, never Network.trace directly (discolint phasesafety):
// it is the one sanctioned path from compute code to Network state, and
// stages dispatch routers in index order, so events land in canonical
// order.
func (r *Router) trace(kind string, pkt *Packet) { r.net.trace(r.id, kind, pkt) }

// WriterTracer formats events one per line to an io.Writer.
type WriterTracer struct {
	W io.Writer
	// Filter, when non-nil, drops events for which it returns false.
	Filter func(kind string, pkt *Packet) bool
	// Count tallies emitted events.
	Count uint64
	// Err latches the first write error; once set, later events are
	// dropped (a truncated trace must not masquerade as a complete one).
	Err error
}

// Event implements Tracer.
func (t *WriterTracer) Event(cycle uint64, router int, kind string, pkt *Packet) {
	if t.Err != nil {
		return
	}
	if t.Filter != nil && !t.Filter(kind, pkt) {
		return
	}
	t.Count++
	if pkt == nil {
		_, t.Err = fmt.Fprintf(t.W, "%8d r%02d %-14s\n", cycle, router, kind)
		return
	}
	form := "raw"
	if pkt.Compressed {
		form = "comp"
	}
	_, t.Err = fmt.Fprintf(t.W, "%8d r%02d %-14s pkt=%d %d->%d %s %s flits=%d\n",
		cycle, router, kind, pkt.ID, pkt.Src, pkt.Dst, pkt.Class, form, pkt.FlitCount)
}

// BufferedTracer is a WriterTracer behind a bufio layer with a Close
// that flushes — the right tracer for writing large traces to files.
type BufferedTracer struct {
	WriterTracer
	bw     *bufio.Writer
	closer io.Closer
}

// NewBufferedTracer wraps w. When w is also an io.Closer (e.g. an
// *os.File), Close closes it after flushing.
func NewBufferedTracer(w io.Writer) *BufferedTracer {
	t := &BufferedTracer{bw: bufio.NewWriter(w)}
	t.W = t.bw
	if c, ok := w.(io.Closer); ok {
		t.closer = c
	}
	return t
}

// Close flushes buffered events and closes the underlying writer when
// it is a Closer. Closing an empty trace is valid and writes nothing.
// The first error (from tracing, flushing or closing) is returned and
// latched in Err.
func (t *BufferedTracer) Close() error {
	err := t.bw.Flush()
	if t.closer != nil {
		if cerr := t.closer.Close(); err == nil {
			err = cerr
		}
	}
	if t.Err == nil {
		t.Err = err
	}
	return t.Err
}

// CountingTracer counts events by kind (cheap assertion helper).
type CountingTracer struct {
	Counts map[string]uint64
}

// NewCountingTracer returns an empty counter.
func NewCountingTracer() *CountingTracer {
	return &CountingTracer{Counts: make(map[string]uint64)}
}

// Event implements Tracer.
func (t *CountingTracer) Event(_ uint64, _ int, kind string, _ *Packet) {
	t.Counts[kind]++
}
