package noc

import "math/bits"

// Reconfiguration-time dateline reclassification.
//
// The per-link VC-class tables built at New assume the topology's minimal
// routes: class 0 while the minimal path ahead still crosses the
// dimension's wraparound dateline, class 1 once it never will again. A
// reconfigured routing table voids that assumption — a ring packet sent
// the long way around a fault crosses the dateline where the minimal
// route never would, lands in the wrong class half, and the dependency
// cycle the dateline was cut to prevent closes again (observed as a
// whole-network wormhole deadlock on the ring with three adjacent edges
// disabled). ReclassifyVCs repairs the tables by walking the routes that
// are actually installed.

// ringOf identifies the unidirectional wraparound ring a directed
// neighbour link (from -> to) belongs to, and reports whether the link is
// that ring's dateline wraparound. ok is false on topologies without
// wraparound rings (mesh) and for non-neighbour pairs.
func ringOf(topo Topology, from, to int) (id int, wrap, ok bool) {
	switch t := topo.(type) {
	case Ring:
		if to == (from+1)%t.N {
			return 0, from == t.N-1, true // clockwise ring
		}
		if to == (from+t.N-1)%t.N {
			return 1, from == 0, true // counter-clockwise ring
		}
	case Torus:
		fx, fy := from%t.W, from/t.W
		tx, ty := to%t.W, to/t.W
		switch {
		case fy == ty && (tx-fx+t.W)%t.W == 1:
			return fy, fx == t.W-1, true // +x ring of row fy
		case fy == ty && (fx-tx+t.W)%t.W == 1:
			return t.H + fy, fx == 0, true // -x ring of row fy
		case fx == tx && (ty-fy+t.H)%t.H == 1:
			return 2*t.H + fx, fy == t.H-1, true // +y ring of column fx
		case fx == tx && (fy-ty+t.H)%t.H == 1:
			return 2*t.H + t.W + fx, fy == 0, true // -y ring of column fx
		}
	}
	return 0, false, false
}

// ReclassifyVCs rebuilds every wraparound link's dateline VC-class table
// from the routing function currently installed. For a destination whose
// installed paths cross a ring's dateline, the canonical rule applies,
// evaluated on the real routes instead of the minimal ones: class 0
// while the path ahead still crosses, class 1 at the wraparound and ever
// after — non-decreasing along every path and never class 0 across the
// wrap, which is exactly what the dateline acyclicity proof needs, no
// matter how far off-minimal the detours run. For a destination whose
// installed paths never cross the ring's dateline the class is
// unconstrained (its dependencies cannot wrap), so those destinations
// are spread across both halves by parity — collapsing them all into one
// class would idle half the VC capacity, which costs little on a quiet
// network but collapses under the retransmission pressure of a
// still-active trojan. Packets already holding a VC keep the class they
// were granted; reconfiguration callers purge the wormholes the route
// change cuts (see reclaim.go), which bounds the mixed-class transient.
// A head still waiting for VA holds no VC yet, so the downstream VC that
// RC resolved for it is resolved again under the new tables. Only the
// recovery path (reroute.ApplySafe) calls this; the paper's pinned
// baselines keep the constructor's minimal-route tables. Reset restores
// those tables, preserving arena reuse equivalence.
func (n *Network) ReclassifyVCs() {
	R := len(n.routers)
	maxRing := -1
	for i := range n.links {
		l := &n.links[i]
		if id, _, ok := ringOf(n.topo, l.From, l.To); ok && id > maxRing {
			maxRing = id
		}
	}
	if maxRing < 0 {
		return // no wraparound rings (mesh): nothing to reclassify
	}
	// crossing[ring*R+d] = some installed path toward d traverses ring's
	// dateline wraparound. Per-destination tables are trees, so walking
	// from every source covers every installed link.
	crossing := make([]bool, (maxRing+1)*R)
	maxHops := 4 * R
	for d := 0; d < R; d++ {
		for s := 0; s < R; s++ {
			for cur, hop := s, 0; cur != d && hop < maxHops; hop++ {
				nb, ok := n.routeHop(cur, d)
				if !ok {
					break
				}
				if id, wrap, ok := ringOf(n.topo, cur, nb); ok && wrap {
					crossing[id*R+d] = true
				}
				cur = nb
			}
		}
	}
	for i := range n.links {
		l := &n.links[i]
		op := n.routers[l.From].outputs[l.FromPort]
		if op.vcClass == nil {
			continue
		}
		rid, _, ok := ringOf(n.topo, l.From, l.To)
		if !ok {
			continue
		}
		for d := range op.vcClass {
			if !crossing[rid*R+d] {
				op.vcClass[d] = uint8(d & 1) // unconstrained: balance by parity
				continue
			}
			cl := uint8(1)
			for cur, hop := l.To, 0; cur != d && hop < maxHops; hop++ {
				nb, ok := n.routeHop(cur, d)
				if !ok {
					break
				}
				if hid, wrap, ok := ringOf(n.topo, cur, nb); ok && wrap && hid == rid {
					cl = 0 // this ring's dateline crossing is still ahead
					break
				}
				cur = nb
			}
			op.vcClass[d] = cl
		}
	}
	for _, r := range n.routers {
		for m := r.reqVA; m != 0; m &= m - 1 {
			ivc := &r.inputs[bits.TrailingZeros64(m)]
			r.resolveOutVC(ivc, int(n.layout.DstOf(ivc.front().f.Payload)))
		}
	}
	n.vcReclassed = true
}

// routeHop resolves one step of the installed routing function: the
// neighbour router cur forwards toward d. ok is false when the table
// yields no usable router-to-router hop (local delivery, out-of-range
// port, or a disabled output).
func (n *Network) routeHop(cur, d int) (next int, ok bool) {
	p := n.route(cur, d)
	if p <= PortLocal || p >= n.routers[cur].numPorts {
		return 0, false
	}
	op := n.routers[cur].outputs[p]
	if op.disabled {
		return 0, false
	}
	return n.links[op.linkID].To, true
}
