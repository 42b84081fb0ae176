package noc

// vcState tracks a virtual channel through the router pipeline.
type vcState int

const (
	vcFree   vcState = iota // no packet
	vcRoute                 // head arrived, awaiting route computation
	vcVA                    // routed, awaiting downstream VC allocation
	vcActive                // allocated, flits may traverse the switch
)

// lockState is the DISCO engine lock on a VC's packet.
type lockState int

const (
	lockNone lockState = iota
	// lockPending: the shadow packet is intact; a mis-predicted grant may
	// still release it (non-blocking compression, Section 3.2 step 3).
	lockPending
	// lockCommitted: the engine owns the payload; the packet must wait for
	// completion before it can be scheduled.
	lockCommitted
)

// vcBuf is one input virtual channel holding (at most) one packet.
//
// Flit accounting: `arrived` counts flits that have entered this router
// (head included); `ready` counts flits available to the switch (arrived
// flits, or flits streamed out of the DISCO engine after a transform);
// `sent` counts flits forwarded; `stored` counts buffer slots currently
// held; `reserved` counts flits in flight on the incoming link.
//
// These counters are conserved quantities: they feed occupancy(), which
// feeds the credit backpressure and the DISCO confidence-counter inputs
// (Eq. 1/Eq. 2 remote and local pressure). They must be mutated only
// through the accessor methods below, which maintain the coupled
// updates — the creditaccess analyzer in internal/lint enforces this.
type vcBuf struct {
	pkt      *Packet
	arrived  int
	ready    int
	sent     int
	stored   int
	reserved int
	state    vcState
	outPort  Port
	outVC    int

	// owner/bit tie the VC into its router's live-occupancy bitmask: bit
	// is set in owner.live exactly while the VC holds or expects a flit
	// (pkt != nil or reserved != 0). The compute stages iterate the mask
	// instead of scanning every VC. Both are wired once at construction
	// and survive reset; every pkt/reserved transition calls syncLive.
	// All such transitions happen outside the compute halves (the Step
	// prologue, the commit phases, NI injection), so the mask is stable
	// while a stage computes. owner is nil for detached buffers in unit
	// tests.
	owner *Router
	bit   uint64

	lock     lockState
	absorbed int // payload flits handed to the engine

	// lostCredits counts credits lost to fault injection on the incoming
	// link: each one holds a buffer slot hostage (the upstream believes
	// it is occupied) until the link-level recovery restores it.
	lostCredits int

	// lostArb marks a VA/SA loss this cycle (DISCO candidate filter).
	lostArb bool
	// waitCycles accumulates cycles the packet spent buffered here while
	// unable to move (the queuing delay DISCO overlaps).
	waitCycles uint64
}

// reset clears the VC for reuse. In-flight flits keep their reservation
// and lost credits stay lost until their recovery lands.
func (v *vcBuf) reset() {
	*v = vcBuf{
		reserved: v.reserved, lostCredits: v.lostCredits,
		owner: v.owner, bit: v.bit,
	}
	v.syncLive()
}

// occupancy is the number of buffer slots this VC consumes now or next
// cycle; a lost credit occupies a slot from the upstream's point of view.
func (v *vcBuf) occupancy() int { return v.stored + v.reserved + v.lostCredits }

// syncLive updates the owning router's live mask to match the VC's
// pkt/reserved state. Called by every accessor that can flip it.
func (v *vcBuf) syncLive() {
	if v.owner == nil {
		return
	}
	if v.pkt != nil || v.reserved != 0 {
		v.owner.live |= v.bit
	} else {
		v.owner.live &^= v.bit
	}
}

// attachPacket anchors a newly arriving packet's head to this VC (link
// arrival prologue, NI fill).
func (v *vcBuf) attachPacket(p *Packet) {
	v.pkt = p
	v.state = vcRoute
	v.syncLive()
}

// syncReady keeps ready mirroring arrived flits while the engine does
// not own the payload (after a commit the engine streams flits out
// itself, so ready is frozen until the transform lands).
func (v *vcBuf) syncReady() {
	if v.lock != lockCommitted {
		v.ready = v.arrived
	}
}

// reserveSlot accounts one flit put in flight on the incoming link: the
// sender holds a credit for it until it lands.
func (v *vcBuf) reserveSlot() {
	v.reserved++
	v.syncLive()
}

// acceptFlit lands one link flit: the reservation converts into an
// occupied buffer slot and an arrived flit.
func (v *vcBuf) acceptFlit() {
	v.reserved--
	v.stored++
	v.arrived++
	v.syncReady()
	v.syncLive()
}

// acceptNIFlit lands one flit from the local network interface, which
// streams without link reservations.
func (v *vcBuf) acceptNIFlit() {
	v.arrived++
	v.stored++
	v.syncReady()
}

// forwardFlit accounts one flit traversing the switch out of this VC.
func (v *vcBuf) forwardFlit() {
	v.sent++
	if v.stored > 0 {
		v.stored--
	}
}

// beginShadowJob starts a DISCO engine job on this VC's packet with
// resident payload flits already absorbed; the shadow copy stays intact
// so a mis-predicted grant can still release it (Section 3.2 step 3).
func (v *vcBuf) beginShadowJob(resident int) {
	v.absorbed = resident
	v.lock = lockPending
}

// releaseShadow aborts a pending job because the packet won arbitration
// after all: the untouched shadow flits become schedulable again.
func (v *vcBuf) releaseShadow() {
	v.lock = lockNone
	v.absorbed = 0
	v.ready = v.arrived
}

// commitJob transitions a pending job to committed. For compression the
// shadow is dropped: the absorbed payload slots are freed (the head
// flit keeps anchoring the VC) — Section 3.2 step 3 / 3.3A.
func (v *vcBuf) commitJob(dropShadow bool) {
	v.lock = lockCommitted
	if dropShadow {
		v.stored -= v.absorbed
		if v.stored < 1 {
			v.stored = 1
		}
	}
}

// absorbPayload hands n freshly arrived payload flits to the engine:
// their buffer slots are freed, the head flit keeps the VC anchored.
func (v *vcBuf) absorbPayload(n int) {
	v.absorbed += n
	v.stored -= n
	if v.stored < 1 {
		v.stored = 1
	}
}

// restockCompressed installs the compressed form produced by the
// engine: the packet restarts with flits buffered flits, nothing sent.
func (v *vcBuf) restockCompressed(flits int) {
	v.arrived = flits
	v.ready = flits
	v.sent = 0
	v.stored = flits
	v.lock = lockNone
	v.absorbed = 0
}

// restockDecompressed installs the decompressed form: the engine
// streams the expansion, so stored slots are left unchanged.
func (v *vcBuf) restockDecompressed(flits int) {
	v.arrived = flits
	v.ready = flits
	v.sent = 0
	v.lock = lockNone
}

// dropCredit loses one credit of this VC to fault injection: the slot
// reads as occupied to the upstream until restoreCredit.
func (v *vcBuf) dropCredit() { v.lostCredits++ }

// restoreCredit returns one lost credit (link-level recovery).
func (v *vcBuf) restoreCredit() {
	if v.lostCredits > 0 {
		v.lostCredits--
	}
}

// abortJob ends an engine job without a transform (incompressible
// content or no flit win): the shadow flits become schedulable again.
func (v *vcBuf) abortJob() {
	v.ready = v.arrived
	v.lock = lockNone
	v.absorbed = 0
}
