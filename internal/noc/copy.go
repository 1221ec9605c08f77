package noc

// CopyFrom makes n's simulation state a copy of src's: stepping n from here
// reproduces src's future, provided each link of n carries a wire whose own
// state matches src's (wires are not copied — see below). Both networks must
// have been built from the same Config. The campaign engine forks one
// network's run into a twin this way (core.Runner.RunGroup, DESIGN.md §11).
//
// Copied: the clock, packet ids and counters; every input VC with its
// wormhole state; every output port's retransmission entries, credits, VC
// ownership, arbitration pointers, stall clock, counters and disabled flag;
// the NI queues, injection locks and reassembly state; the scheduler's
// active sets, flit counters and sleep counter; the PlainWires' counters.
//
// Not copied, because they are functions or pointers into src's own
// structures: the installed wires, the route function, the TDM link
// schedule, delivery callbacks and the telemetry tap. CopyFrom panics when
// either network's routing or link schedule has been replaced since Reset,
// since data alone cannot carry that state. Static structure (config,
// topology, links, VC-class tables) is equal by construction.
//
// It allocates nothing once n's buffers have grown to src's high-water
// marks.
func (n *Network) CopyFrom(src *Network) {
	if n.cfg != src.cfg {
		panic("noc: CopyFrom between networks of different configurations")
	}
	if !n.routePristine || !src.routePristine || n.vcReclassed || src.vcReclassed ||
		n.schedule != nil || src.schedule != nil {
		panic("noc: CopyFrom of a network whose routing or link schedule was replaced")
	}
	n.cycle = src.cycle
	n.nextPacketID = src.nextPacketID
	n.Counters = src.Counters
	n.refPacketFlits = src.refPacketFlits
	n.copyActivity(src)
	for i, r := range n.routers {
		r.copyFrom(src.routers[i])
	}
	for i, ni := range n.nis {
		ni.copyFrom(src.nis[i])
	}
	for i, pw := range n.plainWires {
		s := src.plainWires[i]
		pw.Corrected, pw.Dropped, pw.Swallowed = s.Corrected, s.Dropped, s.Swallowed
	}
}

// copyFrom copies a router's buffers and port state (Network.CopyFrom).
// The wire, the upstream port pointers and the scheduler pointer are
// structure, not state.
func (r *Router) copyFrom(src *Router) {
	for i := range r.inputs {
		d, s := &r.inputs[i], &src.inputs[i]
		//nocvet:allowalloc bounded: occupancy is credit-limited to BufDepth and the array is pre-sized to it
		d.buf = append(d.buf[:0], s.buf...)
		d.head = s.head
		d.routed, d.route, d.allocated, d.outVC = s.routed, s.route, s.allocated, s.outVC
	}
	for p := 0; p < r.numPorts; p++ {
		d, s := r.outputs[p], src.outputs[p]
		//nocvet:allowalloc bounded: entries is pre-sized to retransCap at construction
		d.entries = append(d.entries[:0], s.entries...)
		copy(d.vcOwner, s.vcOwner)
		copy(d.credits, s.credits)
		d.disabled = s.disabled
		d.saPtr, d.vaPtr = s.saPtr, s.vaPtr
		d.lastProgress = s.lastProgress
		d.FlitsSent, d.FlitsRecv = s.FlitsSent, s.FlitsRecv
		d.Retransmissions, d.RouteViolations = s.Retransmissions, s.RouteViolations
	}
	r.copyActivity(src)
}

// copyFrom copies an NI's queues, locks and reassembly state
// (Network.CopyFrom). Reassembly states come from n's own recycle list, so
// no pointer crosses between the networks.
func (ni *NI) copyFrom(src *NI) {
	for c := range ni.queues {
		//nocvet:allowalloc bounded: qlen admission caps occupancy at InjQueueCap and the queue is pre-sized to it
		ni.queues[c] = append(ni.queues[c][:0], src.queues[c]...)
	}
	copy(ni.heads, src.heads)
	copy(ni.injLock, src.injLock)
	ni.rrCore = src.rrCore
	for id, st := range ni.rx { //nocvet:orderfree drains the map into the recycle list; recycled states are overwritten before reuse
		delete(ni.rx, id)
		//nocvet:allowalloc bounded: rxFree holds at most the concurrent-reassembly high-water mark of recycled states
		ni.rxFree = append(ni.rxFree, st)
	}
	for id, s := range src.rx { //nocvet:orderfree fills a map keyed by packet id; each entry is an independent value copy
		var st *rxState
		if k := len(ni.rxFree); k > 0 {
			st, ni.rxFree = ni.rxFree[k-1], ni.rxFree[:k-1]
		} else {
			st = new(rxState) //nocvet:allowalloc cold: only before the recycle list has warmed up to src's live-packet count
		}
		*st = *s
		ni.rx[id] = st
	}
	ni.copyActivity(src)
}
