package noc

import "math/bits"

// This file implements the event-driven simulator core: per-phase active
// sets plus a next-event sleep counter, so Step cost scales with the flits
// in flight rather than the router count, and whole-network quiescent
// stretches (retransmission-penalty waits, inter-burst gaps) cost O(1) per
// cycle instead of a full sweep.
//
// Membership is maintained at the same counter edges the old sweep's skip
// conditions tested:
//
//	actIn[r]  <=> routers[r].inFlits > 0   (SA/ST, VA, RC eligibility)
//	actOut[r] <=> routers[r].parked  > 0   (LT eligibility, with actIn)
//	actNI[r]  <=> nis[r].total       > 0   (injection eligibility)
//
// so iterating an active set visits exactly the routers the full sweep
// would not have skipped. Phase order inside Step is unchanged; see
// DESIGN.md §9 for why per-word snapshot iteration preserves the sweep's
// semantics bit for bit.

// activeSet is a bitmap over router ids (<= 256 routers, <= 4 words).
type activeSet struct {
	w []uint64
}

func newActiveSet(n int) activeSet {
	return activeSet{w: make([]uint64, (n+63)/64)}
}

func (s activeSet) set(i int)      { s.w[i>>6] |= 1 << uint(i&63) }
func (s activeSet) clear(i int)    { s.w[i>>6] &^= 1 << uint(i&63) }
func (s activeSet) has(i int) bool { return s.w[i>>6]>>uint(i&63)&1 == 1 }

// scheduler tracks which routers and NIs can make progress in each pipeline
// phase, and how many flits the network holds in total. The global counters
// decide when the whole network may sleep.
type scheduler struct {
	actIn  activeSet // routers with buffered input flits
	actOut activeSet // routers with parked retransmission entries
	actNI  activeSet // routers whose NI holds injection-queue flits

	flitsIn     int // sum of Router.inFlits
	flitsParked int // sum of Router.parked
	flitsNI     int // sum of NI.total
}

func newScheduler(routers int) *scheduler {
	return &scheduler{
		actIn:  newActiveSet(routers),
		actOut: newActiveSet(routers),
		actNI:  newActiveSet(routers),
	}
}

// gainIn/loseIn, gainParked/loseParked and NI.gain/lose are the only
// mutation points of the activity counters: every buffer edge flows through
// them, so set membership can never drift from the counters.

func (r *Router) gainIn(k int) {
	if r.inFlits == 0 {
		r.sched.actIn.set(r.id)
	}
	r.inFlits += k
	r.sched.flitsIn += k
}

func (r *Router) loseIn(k int) {
	r.inFlits -= k
	r.sched.flitsIn -= k
	if r.inFlits == 0 {
		r.sched.actIn.clear(r.id)
	}
}

func (r *Router) gainParked(k int) {
	if r.parked == 0 {
		r.sched.actOut.set(r.id)
	}
	r.parked += k
	r.sched.flitsParked += k
}

func (r *Router) loseParked(k int) {
	r.parked -= k
	r.sched.flitsParked -= k
	if r.parked == 0 {
		r.sched.actOut.clear(r.id)
	}
}

func (ni *NI) gain(k int) {
	if ni.total == 0 {
		ni.sched.actNI.set(ni.router)
	}
	ni.total += k
	ni.sched.flitsNI += k
}

func (ni *NI) lose(k int) {
	ni.total -= k
	ni.sched.flitsNI -= k
	if ni.total == 0 {
		ni.sched.actNI.clear(ni.router)
	}
}

// The occupancy/request-mask helpers below are the only mutation points of
// occ, routedTo and reqVA — the masks the arbitration scans (phaseSAST,
// phaseVA, hasWorkFor) trust instead of probing buffers. Keeping every
// transition here (enforced by nocvet's telemetrysafe analyzer) means the
// brute-force invariant audit certifies every way the masks can change.

// markOccupied sets the occupancy bit of input VC bit index idx (occBit).
func (r *Router) markOccupied(idx uint) { r.occ |= 1 << idx }

// clearOccupied clears the occupancy bit of a drained input VC.
func (r *Router) clearOccupied(idx uint) { r.occ &^= 1 << idx }

// routeInput records that the packet resident in input VC idx is routed to
// output o: SA may now consider it, and its head requests VA.
func (r *Router) routeInput(o int, idx uint) {
	r.routedTo[o] |= 1 << idx
	r.reqVA |= 1 << idx
}

// unrouteInput invalidates a route (dead output port, dropped packet):
// the VC neither competes for output o nor requests VA.
func (r *Router) unrouteInput(o int, idx uint) {
	r.routedTo[o] &^= 1 << idx
	r.reqVA &^= 1 << idx
}

// grantVA retires a VC's VA request after allocation succeeds.
func (r *Router) grantVA(idx uint) { r.reqVA &^= 1 << idx }

// retireRouted clears a VC's claim on output o when its packet's tail has
// traversed the crossbar (the route persists only head-to-tail).
func (r *Router) retireRouted(o int, idx uint) { r.routedTo[o] &^= 1 << idx }

// resetActivity clears a router's scheduler-facing state — the activity
// counters and the occupancy/request masks — back to the post-construction
// empty state. Only Network.Reset may call it: the buffers the masks mirror
// must be emptied in the same breath, or the invariant audit's
// counter/mask/buffer agreement breaks.
func (r *Router) resetActivity() {
	r.inFlits, r.parked = 0, 0
	r.occ, r.reqVA = 0, 0
	for o := range r.routedTo {
		r.routedTo[o] = 0
	}
}

// resetActivity clears an NI's flit counter alongside its emptied queues
// (Network.Reset only).
func (ni *NI) resetActivity() { ni.total = 0 }

// reset empties every active set and global counter (Network.Reset only;
// the per-router and per-NI resets above restore the mirrored state).
func (s *scheduler) reset() {
	for i := range s.actIn.w {
		s.actIn.w[i], s.actOut.w[i], s.actNI.w[i] = 0, 0, 0
	}
	s.flitsIn, s.flitsParked, s.flitsNI = 0, 0, 0
}

// resetSleep cancels any scheduled quiescence without replaying stall
// clocks — Network.Reset rewinds every clock to zero anyway.
func (n *Network) resetSleep() { n.sleepUntil = 0 }

// asleep reports whether the network is inside a scheduled quiescent
// stretch: cycles before sleepUntil are exact no-ops for every phase.
func (n *Network) asleep() bool { return n.cycle < n.sleepUntil }

// scheduleSleep computes the next cycle at which any pipeline phase can do
// work, assuming no external mutation. Callable only when the input buffers
// and injection queues are globally empty and no TDM schedule gates links
// (a schedule makes sendability time-dependent in ways we don't model
// here): the sole remaining event source is the retransmission buffers,
// whose entries become sendable at max(nextTry, enqueuedAt+1). Until the
// earliest such time every phaseLT call is a pure no-op (no entry passes
// the pick scan), SA/VA/RC have no input flits to move, and injection has
// no queued flits — so the skipped cycles change no state except the
// entry-free ports' lastProgress refreshes, which repairClocks replays.
func (n *Network) scheduleSleep() {
	if n.sched.flitsParked == 0 {
		n.sleepUntil = ^uint64(0) // fully idle: sleep until external input
		return
	}
	next := ^uint64(0)
	for wi, w := range n.sched.actOut.w {
		for ; w != 0; w &= w - 1 {
			r := n.routers[wi<<6+bits.TrailingZeros64(w)]
			for p := 0; p < r.numPorts; p++ {
				for i := range r.outputs[p].entries {
					e := &r.outputs[p].entries[i]
					t := e.enqueuedAt + 1
					if e.nextTry > t {
						t = e.nextTry
					}
					if t < next {
						next = t
					}
				}
			}
		}
	}
	// A conservative (early) wake is harmless: the woken Step is a no-op
	// and re-sleeps. Only commit to sleeping when at least one full cycle
	// is skipped.
	if next > n.cycle+1 {
		n.sleepUntil = next
	}
}

// repairClocks replays the lastProgress refreshes phaseLT would have
// performed during skipped cycles: an entry-free (or disabled) port of a
// non-idle router with no input flit routed toward it refreshes every
// cycle, so batch-setting it to the current cycle is equivalent to the
// per-cycle updates. Ports holding entries are deliberately left stale —
// their stall clocks must keep running, exactly as under the sweep.
func (n *Network) repairClocks() {
	for wi := range n.sched.actOut.w {
		w := n.sched.actIn.w[wi] | n.sched.actOut.w[wi]
		for ; w != 0; w &= w - 1 {
			r := n.routers[wi<<6+bits.TrailingZeros64(w)]
			for p := 0; p < r.numPorts; p++ {
				op := r.outputs[p]
				if (op.disabled || len(op.entries) == 0) &&
					(op.disabled || !r.hasWorkFor(p)) {
					op.lastProgress = n.cycle
				}
			}
		}
	}
}

// repairIfAsleep makes stall clocks exact before an observation (Occupancy,
// telemetry sampling) taken inside a sleep stretch.
func (n *Network) repairIfAsleep() {
	if n.asleep() {
		n.repairClocks()
	}
}

// wakeAll ends a sleep stretch because external state is about to change
// (injection, wire swap, link disabling, routing or schedule updates). The
// skipped refreshes are replayed first, under the pre-mutation state —
// order matters, or the mutation would leak into past cycles' predicates.
func (n *Network) wakeAll() {
	if n.asleep() {
		n.repairClocks()
		n.sleepUntil = 0
	}
}

// copyActivity copies the scheduler-facing state of a whole network: the
// active sets, global flit counters and the sleep counter
// (Network.CopyFrom only; the per-router and per-NI copies below carry the
// mirrored counters and masks alongside the buffers they describe).
func (n *Network) copyActivity(src *Network) {
	s, o := n.sched, src.sched
	copy(s.actIn.w, o.actIn.w)
	copy(s.actOut.w, o.actOut.w)
	copy(s.actNI.w, o.actNI.w)
	s.flitsIn, s.flitsParked, s.flitsNI = o.flitsIn, o.flitsParked, o.flitsNI
	n.sleepUntil = src.sleepUntil
}

// copyActivity copies a router's activity counters and occupancy/request
// masks (Router.copyFrom only).
func (r *Router) copyActivity(src *Router) {
	r.inFlits, r.parked = src.inFlits, src.parked
	r.occ, r.reqVA = src.occ, src.reqVA
	r.routedTo = src.routedTo
}

// copyActivity copies an NI's flit counter (NI.copyFrom only).
func (ni *NI) copyActivity(src *NI) { ni.total = src.total }
