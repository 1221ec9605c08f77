package core

import (
	"fmt"

	"tasp/internal/detect"
	"tasp/internal/fault"
	"tasp/internal/flit"
	"tasp/internal/locate"
	"tasp/internal/noc"
	"tasp/internal/obfe2e"
	"tasp/internal/qos"
	"tasp/internal/reroute"
	"tasp/internal/stats"
	"tasp/internal/tasp"
	"tasp/internal/traffic"
)

// Runner executes experiments against reusable simulation arenas. One-shot
// callers get identical behaviour to the old core.Run (which is now a thin
// wrapper); the campaign engine keeps one Runner per worker so repeated
// points on the same platform reuse a single network, its wires, trojans,
// traffic generators and result storage instead of reallocating them —
// the basis of the 0 allocs/point steady-state contract.
//
// A Runner is NOT safe for concurrent use; give each worker its own.
type Runner struct {
	arenas map[noc.Config]*arena
	// twins holds a second arena per platform: RunGroup continues a forked
	// arm there while the trunk's run stays intact in arenas.
	twins  map[noc.Config]*arena
	models map[modelKey]*traffic.Model
	// trunkRes receives an unrecorded trunk's results (RunGroup).
	trunkRes Results
}

// NewRunner returns an empty Runner; arenas are built on first use per
// effective network configuration.
func NewRunner() *Runner {
	return &Runner{
		arenas: map[noc.Config]*arena{},
		twins:  map[noc.Config]*arena{},
		models: map[modelKey]*traffic.Model{},
	}
}

type modelKey struct {
	name string
	cfg  noc.Config
}

// model memoizes benchmark traffic models: building one walks every
// src/dst pair's route, far too expensive per point.
func (r *Runner) model(name string, cfg noc.Config) (*traffic.Model, error) {
	k := modelKey{name, cfg}
	if m := r.models[k]; m != nil {
		return m, nil
	}
	m, err := traffic.Benchmark(name, cfg)
	if err != nil {
		return nil, err
	}
	r.models[k] = m
	return m, nil
}

type placementKey struct {
	model  *traffic.Model
	k      int
	target tasp.Target
}

type trojanKey struct {
	kind   tasp.Kind
	target tasp.Target
	yBits  int
	hijack int
	period int
	active int
}

// arena is one reusable simulation platform: a network plus every per-link
// and per-run component an experiment wires onto it, all reset in place
// between points. It is keyed by the effective noc.Config (after any
// mitigation-driven mutation such as TDM's retransmission partitioning).
type arena struct {
	cfg noc.Config
	net *noc.Network

	wires      []*SecureWire      // per link id, installed each point
	chains     []fault.Chain      // per link id, reusable injector chain storage
	transients []*fault.Transient // per link id, lazily built, reseeded per point
	isInfected []bool             // per link id scratch

	placements map[placementKey][]int
	trojans    map[trojanKey][]tasp.Trojan
	colls      map[int]*tasp.Collusion // per slice length, shared by a collude set
	gens       map[*traffic.Model]*traffic.Generator

	// disabled is the cumulative reconfiguration set for the current point:
	// the Rerouting baseline and conviction-driven recovery both feed it,
	// and every reroute.Apply receives the full set (the route builder does
	// not consult the network's own disabled-link state).
	disabled map[int]bool

	// hijacks memoizes the auto-selected misroute hijack router per victim;
	// nextAt is the (router, port) -> downstream-router table the selection
	// walks, built lazily on first misroute point.
	hijacks map[int]int
	nextAt  []int

	// ackmon is the memoized secure-ack monitor (SecureAck points only).
	ackmon *detect.AckMonitor

	tdm         *qos.TDM
	tdmSchedule func(cycle uint64, vc uint8) bool
	e2e         *obfe2e.Scrambler
	evScratch   map[int]locate.LinkEvidence
	scratch     flit.Packet // reused injection packet (TickInto)

	// run is the simulation in progress on this arena; the hoisted
	// closures read it. They are created once at arena construction so
	// installing them per point costs nothing.
	run         run
	deliveredFn func(d noc.Delivery)
	injectFn    func(core int, p *flit.Packet) bool
}

// run is one simulation in progress on an arena: the resolved
// configuration and every per-run value the main loop reads. It lives
// inside its arena, so starting a run allocates nothing, and a trunk's run
// survives while a forked arm runs on the twin arena.
type run struct {
	a        *arena
	cfg      ExperimentConfig // defaults resolved
	res      *Results
	enableAt uint64
	total    uint64 // Warmup + Measure

	trojans []tasp.Trojan
	gen     *traffic.Generator
	tdm     *qos.TDM
	e2e     *obfe2e.Scrambler
	ackmon  *detect.AckMonitor
	tel     *noc.LinkTelemetry
	eng     *locate.Engine

	trackVictim bool
	victim      uint8
	mitigated   bool // s2s-lob: watch the detectors for FirstTrojanAt
	recoverOn   bool
	rerouted    bool
}

// arena returns the reusable platform for an effective network
// configuration, building it on first use; twin selects the platform's
// second arena.
func (r *Runner) arena(cfg noc.Config, twin bool) (*arena, error) {
	arenas := r.arenas
	if twin {
		arenas = r.twins
	}
	if a := arenas[cfg]; a != nil {
		return a, nil
	}
	net, err := noc.New(cfg)
	if err != nil {
		return nil, err
	}
	layout := cfg.Layout()
	links := net.LinkSlice()
	a := &arena{
		cfg:        cfg,
		net:        net,
		wires:      make([]*SecureWire, len(links)),
		chains:     make([]fault.Chain, len(links)),
		transients: make([]*fault.Transient, len(links)),
		isInfected: make([]bool, len(links)),
		placements: map[placementKey][]int{},
		trojans:    map[trojanKey][]tasp.Trojan{},
		colls:      map[int]*tasp.Collusion{},
		gens:       map[*traffic.Model]*traffic.Generator{},
		hijacks:    map[int]int{},
		disabled:   map[int]bool{},
	}
	for i := range a.wires {
		a.wires[i] = NewSecureWire(fault.None, 0, layout)
	}
	a.deliveredFn = func(d noc.Delivery) {
		s := &a.run
		s.res.Latency.Observe(d.Latency)
		if s.trackVictim && d.Hdr.DstR == s.victim && a.net.Cycle() >= s.enableAt {
			s.res.VictimDelivered++
		}
	}
	a.injectFn = func(core int, p *flit.Packet) bool {
		s := &a.run
		if s.tdm != nil {
			p.Hdr.VC = s.tdm.AssignVC(core, p.Hdr.Seq)
		}
		if s.e2e != nil {
			p.Hdr.SrcR = uint8(a.cfg.CoreRouter(core)) // key derivation needs src
			s.e2e.Apply(p)
		}
		return a.net.Inject(core, p)
	}
	arenas[cfg] = a
	return a, nil
}

// placement memoizes the attacker's optimal link selection, which reruns the
// analytic load model and a connectivity check per candidate. The returned
// slice is shared — callers must copy, not mutate.
func (a *arena) placement(m *traffic.Model, k int, target tasp.Target) []int {
	key := placementKey{m, k, target}
	if p, ok := a.placements[key]; ok {
		return p
	}
	p := ChooseInfectedLinks(m, a.cfg, a.net.LinkSlice(), k, target)
	a.placements[key] = p
	return p
}

// trojanSet returns n reset trojans of one family for a target, reusing
// previously compiled instances (the comparator taps and wire tables depend
// only on the family, target, hijack, duty cycle and the arena's layout).
// Colluding sets get their rotation roles reassigned per call — the memoized
// slice may be cut to a different n between points.
func (a *arena) trojanSet(kind tasp.Kind, target tasp.Target, yBits, hijack, period, active, n int) []tasp.Trojan {
	key := trojanKey{kind, target, yBits, hijack, period, active}
	ts := a.trojans[key]
	for len(ts) < n {
		switch kind {
		case tasp.KindDrop:
			ts = append(ts, tasp.NewDropper(target, a.net.Layout()))
		case tasp.KindMisroute:
			ts = append(ts, tasp.NewMisrouter(target, uint8(hijack), a.net.Layout()))
		case tasp.KindThrottle:
			ts = append(ts, tasp.NewThrottledDropper(target, a.net.Layout(), period, active))
		case tasp.KindCollude:
			coord := a.colls[period]
			if coord == nil {
				coord = tasp.NewCollusion(period)
				a.colls[period] = coord
			}
			ts = append(ts, tasp.NewColludingDropper(target, a.net.Layout(), coord))
		default:
			ts = append(ts, tasp.New(target, yBits, a.net.Layout()))
		}
	}
	a.trojans[key] = ts
	ts = ts[:n]
	for i, t := range ts {
		t.Reset()
		if cd, ok := t.(*tasp.ColludingDropper); ok {
			cd.SetRole(i, n)
		}
	}
	return ts
}

// autoHijack picks the misroute hijack router for a victim: the reachable
// router farthest from the victim by default-route walk distance (ties to the
// higher id), so the diversion path is maximal and, on every supported
// substrate, already diverges at the first hop. Memoized per victim — the
// route walk is O(R^2) and must not recur per campaign point.
func (a *arena) autoHijack(victim int) int {
	if h, ok := a.hijacks[victim]; ok {
		return h
	}
	t := a.net.Topology()
	R := t.Routers()
	if a.nextAt == nil {
		a.nextAt = make([]int, R*noc.MaxPorts)
		for i := range a.nextAt {
			a.nextAt[i] = -1
		}
		for _, l := range a.net.LinkSlice() {
			a.nextAt[l.From*noc.MaxPorts+l.FromPort] = l.To
		}
	}
	best, bestDist := victim, -1
	for cand := 0; cand < R; cand++ {
		if cand == victim {
			continue
		}
		r, dist := victim, 0
		for hop := 0; r != cand && hop <= R; hop++ {
			nxt := a.nextAt[r*noc.MaxPorts+t.Route(r, cand)]
			if nxt < 0 {
				dist = -1
				break
			}
			r = nxt
			dist++
		}
		if r != cand || dist < 0 {
			continue
		}
		if dist > bestDist || (dist == bestDist && cand > best) {
			best, bestDist = cand, dist
		}
	}
	a.hijacks[victim] = best
	return best
}

// generator returns the memoized traffic generator for a model, rewound to
// the given seed.
func (a *arena) generator(m *traffic.Model, seed uint64) *traffic.Generator {
	g := a.gens[m]
	if g == nil {
		g = m.Generator(seed)
		a.gens[m] = g
		return g
	}
	g.Reset(seed)
	return g
}

// Run executes one experiment into a fresh Results (the one-shot API; the
// old core.Run delegates here).
func (r *Runner) Run(cfg ExperimentConfig) (*Results, error) {
	res := &Results{}
	if err := r.RunInto(cfg, res); err != nil {
		return nil, err
	}
	return res, nil
}

// resetResults rewinds a Results for reuse: maps cleared, slices truncated
// in place, the latency histogram emptied. Grown storage is kept — the
// amortisation RunInto's steady state relies on.
func resetResults(res *Results, cfg ExperimentConfig) {
	res.Config = cfg
	res.InfectedLinks = res.InfectedLinks[:0]
	res.Samples = res.Samples[:0]
	res.AtEnable, res.Final = noc.Counters{}, noc.Counters{}
	res.Throughput, res.AvgLatency = 0, 0
	res.HTMatches, res.HTInjections = 0, 0
	if res.Detections == nil {
		res.Detections = map[int]detect.Classification{}
	} else {
		clear(res.Detections)
	}
	if res.TriggerScopes == nil {
		res.TriggerScopes = map[int]string{}
	} else {
		clear(res.TriggerScopes)
	}
	res.Obfuscated, res.StallCycles, res.BISTScans = 0, 0, 0
	if res.AckVerdicts == nil {
		res.AckVerdicts = map[int]detect.AckClass{}
	} else {
		clear(res.AckVerdicts)
	}
	if res.AckChannels == nil {
		res.AckChannels = map[int]detect.AckChannel{}
	} else {
		clear(res.AckChannels)
	}
	res.AckFlaggedAt = 0
	res.HijackRouter = -1
	res.ReroutedAt = 0
	res.RecoveredAt = 0
	res.RecoveredLinks = res.RecoveredLinks[:0]
	res.AtRecover = noc.Counters{}
	res.VictimAtRecover = 0
	res.VictimDelivered = 0
	res.FirstTrojanAt = 0
	if res.Latency == nil {
		res.Latency = stats.NewHistogram()
	} else {
		res.Latency.Reset()
	}
	res.Suspects, res.SuspectsTelemetry = nil, nil
	res.SuspectTrace = res.SuspectTrace[:0]
}

// copyFrom copies the results a run has accumulated so far (RunGroup's
// fork). Config, InfectedLinks and HijackRouter are set by begin from each
// run's own configuration; the fields finish writes (Final, Throughput,
// AvgLatency, the HT and wire totals, Detections, TriggerScopes,
// AckVerdicts, AckChannels, Suspects, SuspectsTelemetry) are still empty
// mid-run.
func (res *Results) copyFrom(src *Results) {
	res.Samples = append(res.Samples[:0], src.Samples...)
	res.AtEnable = src.AtEnable
	res.AckFlaggedAt = src.AckFlaggedAt
	res.ReroutedAt = src.ReroutedAt
	res.RecoveredAt = src.RecoveredAt
	res.RecoveredLinks = append(res.RecoveredLinks[:0], src.RecoveredLinks...)
	res.AtRecover = src.AtRecover
	res.VictimAtRecover = src.VictimAtRecover
	res.VictimDelivered = src.VictimDelivered
	res.FirstTrojanAt = src.FirstTrojanAt
	res.Latency.CopyFrom(src.Latency)
	res.SuspectTrace = append(res.SuspectTrace[:0], src.SuspectTrace...)
}

// RunInto executes one experiment into a caller-owned Results, reusing both
// the Results' storage and the Runner's arena for the experiment's platform.
// Repeated same-platform points with the none or s2s-lob mitigations run
// allocation-free at steady state; points that reconfigure the topology
// (rerouting), rank suspects (locate) or scramble end-to-end pay their own
// per-point costs.
//
// It is a group of one (RunGroup with no arms): the same seeded draw order,
// phase structure and results as the old core.Run, enforced by the golden
// experiment output and the fresh-vs-reused equivalence test.
func (r *Runner) RunInto(cfg ExperimentConfig, res *Results) error {
	return r.RunGroup(cfg, res, nil, nil)
}

// RunGroup runs a trunk experiment and arms that differ from it only in
// their mitigation, simulating each shared prefix once. Every arm is the
// trunk's run up to the end of the cycle before its DivergesAt: the trunk
// is simulated to that cycle, its complete state is copied into the
// platform's twin arena, and only the rest of the arm is simulated there.
// One twin suffices because arms run in fork order, so arms must be sorted
// by DivergesAt, each must be forkable (DivergesAt > 0), and the trunk must
// be unmitigated when there are arms.
//
// armRes[i] receives arms[i]'s results and trunkRes the trunk's. A nil
// trunkRes leaves the trunk unrecorded, so it runs only as far as the last
// fork. Every Results is exactly what RunInto of the same configuration
// produces alone (TestForkedArmsMatchFullRuns).
func (r *Runner) RunGroup(trunk ExperimentConfig, trunkRes *Results, arms []Mitigation, armRes []*Results) error {
	if len(arms) != len(armRes) {
		return fmt.Errorf("core: %d arms but %d results", len(arms), len(armRes))
	}
	if len(arms) > 0 && trunk.Mitigation != NoMitigation {
		return fmt.Errorf("core: a group's trunk must be unmitigated, not %s", trunk.Mitigation)
	}
	var prev uint64
	for _, m := range arms {
		arm := trunk
		arm.Mitigation = m
		d := arm.DivergesAt()
		if d == 0 {
			return fmt.Errorf("core: %s cannot fork from this configuration's unmitigated run", m)
		}
		if d < prev {
			return fmt.Errorf("core: arm %s is out of fork order", m)
		}
		prev = d
	}
	res := trunkRes
	if res == nil {
		res = &r.trunkRes
	}
	t, err := r.begin(trunk, res, false)
	if err != nil {
		return err
	}
	for i, m := range arms {
		arm := trunk
		arm.Mitigation = m
		if err := t.advance(min(arm.DivergesAt()-1, t.total)); err != nil {
			return err
		}
		s, err := r.begin(arm, armRes[i], true)
		if err != nil {
			return err
		}
		s.copyFrom(t)
		if err := s.advance(s.total); err != nil {
			return err
		}
		s.finish()
	}
	if trunkRes == nil {
		return nil
	}
	if err := t.advance(t.total); err != nil {
		return err
	}
	t.finish()
	return nil
}

// begin sets up a run of cfg into res on the platform's arena (or its twin)
// and returns it at cycle 0: attack deployment, wire assembly, the
// mitigation and detection layers, and the traffic generator.
func (r *Runner) begin(cfg ExperimentConfig, res *Results, twin bool) (*run, error) {
	if err := cfg.Noc.Validate(); err != nil {
		return nil, err
	}
	model := cfg.Model
	if model == nil {
		m, err := r.model(cfg.Benchmark, cfg.Noc)
		if err != nil {
			return nil, err
		}
		model = m
	}
	if cfg.Mitigation == TDMQoS {
		// SurfNoC-style non-interference partitions the retransmission
		// buffers between the domains too.
		cfg.Noc.PartitionRetrans = true
	}
	a, err := r.arena(cfg.Noc, twin)
	if err != nil {
		return nil, err
	}
	cfg.resolveDefaults()
	s := &a.run
	*s = run{a: a, cfg: cfg, res: res, enableAt: cfg.enableAt(), total: uint64(cfg.Warmup + cfg.Measure)}

	resetResults(res, cfg)
	net := a.net
	net.Reset()

	// ---- attack deployment ----
	res.InfectedLinks = append(res.InfectedLinks, cfg.Attack.Links...)
	if cfg.Attack.Enabled && len(res.InfectedLinks) == 0 {
		k := cfg.Attack.NumLinks
		if k <= 0 {
			k = 1
		}
		res.InfectedLinks = append(res.InfectedLinks, a.placement(model, k, cfg.Attack.Target)...)
	}
	infected := res.InfectedLinks
	yBits := cfg.Attack.YBits
	if yBits == 0 {
		yBits = tasp.DefaultPayloadBits
	}

	// ---- wire assembly ----
	s.mitigated = cfg.Mitigation == S2SLOb
	wantCap := cfg.DetectorHistory
	if wantCap <= 0 {
		wantCap = detect.DefaultHistoryCap
	}
	// A negative hijack means auto-select; 0 is a legitimate explicit choice
	// (router 0 exists on every substrate), so the sentinel is -1, not 0.
	hijack := cfg.Attack.Hijack
	if cfg.Attack.Enabled && cfg.Attack.Kind == tasp.KindMisroute {
		if hijack < 0 {
			hijack = a.autoHijack(int(cfg.Attack.Target.DstR))
		}
		res.HijackRouter = hijack
	}
	if cfg.Attack.Enabled && len(infected) > 0 {
		s.trojans = a.trojanSet(cfg.Attack.Kind, cfg.Attack.Target, yBits, hijack,
			cfg.Attack.DutyPeriod, cfg.Attack.DutyActive, len(infected))
	}
	for i := range a.isInfected {
		a.isInfected[i] = false
	}
	for _, id := range infected {
		a.isInfected[id] = true
	}
	ti := 0
	for _, l := range net.LinkSlice() {
		chain := a.chains[l.ID][:0]
		if a.isInfected[l.ID] && cfg.Attack.Enabled {
			chain = append(chain, s.trojans[ti])
			ti++
		}
		if cfg.TransientBER > 0 {
			tr := a.transients[l.ID]
			if tr == nil {
				tr = fault.NewTransient(cfg.TransientBER, cfg.Seed^uint64(l.ID)<<8)
				a.transients[l.ID] = tr
			} else {
				tr.Reset(cfg.TransientBER, cfg.Seed^uint64(l.ID)<<8)
			}
			chain = append(chain, tr)
		}
		a.chains[l.ID] = chain
		var tap fault.Adversary = fault.None
		if len(chain) > 0 {
			// *Chain (not Chain) keeps the interface assignment pointer-
			// shaped: boxing the slice header would allocate per link.
			tap = &a.chains[l.ID]
		}
		w := a.wires[l.ID]
		w.Reset(tap, cfg.Seed^0x10b^uint64(l.ID))
		w.Mitigated = s.mitigated
		w.EscalationOrder = cfg.EscalationOrder
		if w.Detector.Cap() != wantCap {
			w.Detector = detect.New(wantCap)
		}
		net.SetWire(l.ID, w)
	}

	// ---- mitigation-specific setup ----
	if cfg.Mitigation == TDMQoS {
		if a.tdm == nil {
			a.tdm = qos.NewTDM(cfg.Noc)
			a.tdmSchedule = a.tdm.Schedule
		}
		s.tdm = a.tdm
		net.SetLinkSchedule(a.tdmSchedule)
	}
	if cfg.Mitigation == E2EObfuscation {
		if a.e2e == nil {
			a.e2e = obfe2e.New(cfg.Seed ^ 0xe2e)
		} else {
			a.e2e.Reseed(cfg.Seed ^ 0xe2e)
		}
		s.e2e = a.e2e
	}

	// Delivery accounting: latency distribution plus, for destination-style
	// targets, the victim application's goodput.
	switch cfg.Attack.Target.Kind {
	case tasp.TargetDest, tasp.TargetDestSrc, tasp.TargetFull:
		s.trackVictim, s.victim = true, cfg.Attack.Target.DstR
	}
	net.SetDelivered(a.deliveredFn)

	// ---- localization + secure-ack layers ----
	if cfg.Locate {
		s.tel = net.EnableTelemetry(0)
		s.eng = locate.New(net.Topology(), net.LinkSlice())
		if a.evScratch == nil {
			a.evScratch = make(map[int]locate.LinkEvidence, len(a.wires))
		}
	}
	if cfg.SecureAck {
		if a.ackmon == nil {
			a.ackmon = detect.NewAckMonitor(len(net.LinkSlice()))
		} else {
			a.ackmon.Reset()
		}
		s.ackmon = a.ackmon
		s.ackmon.DeficitRatio = cfg.AckDeficitRatio
	}
	s.recoverOn = cfg.RecoverOnConvict && s.ackmon != nil
	clear(a.disabled)
	if len(cfg.PredisabledLinks) > 0 {
		// Post-fault capacity oracle: the links are down (with the safe
		// reconfiguration) from the very first cycle, as if recovery had
		// convicted them instantly and for free.
		for _, id := range cfg.PredisabledLinks {
			a.disabled[id] = true
		}
		if _, err := reroute.ApplySafe(net, a.disabled); err != nil {
			return nil, fmt.Errorf("predisable: %w", err)
		}
	}

	s.gen = a.generator(model, cfg.Seed)
	return s, nil
}

// copyFrom makes s, freshly begun on another arena with a configuration
// that differs from src's at most in the mitigation, continue from src's
// current cycle: the network, every wire's detector, method log, keystream
// and flow latch, the trojans' FSMs, the traffic generator's draw position
// and the results so far. Per-run configuration stays s's own: taps,
// Mitigated flags, escalation orders and callbacks. The ack monitor, the
// localization layer, transient injectors and reconfiguration state are
// not copied; DivergesAt declines every configuration that uses them.
func (s *run) copyFrom(src *run) {
	s.a.net.CopyFrom(src.a.net)
	for i, w := range s.a.wires {
		w.CopyFrom(src.a.wires[i])
	}
	for i, t := range s.trojans {
		t.CopyFrom(src.trojans[i])
	}
	s.gen.CopyFrom(src.gen)
	s.res.copyFrom(src.res)
	s.rerouted = src.rerouted
}

// evidence gathers the localization engine's per-link evidence.
func (s *run) evidence() map[int]locate.LinkEvidence {
	a, net := s.a, s.a.net
	for _, l := range net.LinkSlice() {
		op := net.LinkOutput(l.ID)
		// Clamped like the monitor's: sampling skew can put recv
		// momentarily ahead of sent, and an unsigned wrap here would
		// swamp the ranking's anomaly term.
		var ackGap uint64
		if op.FlitsSent > op.FlitsRecv {
			ackGap = op.FlitsSent - op.FlitsRecv
		}
		ev := locate.LinkEvidence{
			Class:           a.wires[l.ID].Detector.Classification(),
			Retransmissions: op.Retransmissions,
			FlitsSent:       op.FlitsSent,
			AckGap:          ackGap,
			RouteViolations: op.RouteViolations,
		}
		if s.ackmon != nil {
			ev.Ack = s.ackmon.Class(l.ID)
		}
		a.evScratch[l.ID] = ev
	}
	return a.evScratch
}

// advance simulates until the network clock reaches cycle to.
func (s *run) advance(to uint64) error {
	a, net, cfg, res := s.a, s.a.net, &s.cfg, s.res
	for net.Cycle() < to {
		if net.Cycle()+1 == s.enableAt {
			for _, ht := range s.trojans {
				ht.SetKillSwitch(true)
			}
		}
		s.gen.TickInto(&a.scratch, a.injectFn)
		net.Step()
		if net.Cycle() == s.enableAt {
			res.AtEnable = net.Counters
		}
		if cfg.Mitigation == Rerouting && !s.rerouted && cfg.Attack.Enabled &&
			net.Cycle() >= s.enableAt+uint64(cfg.RerouteDetectDelay) {
			for _, id := range res.InfectedLinks {
				a.disabled[id] = true
			}
			if _, err := reroute.Apply(net, a.disabled); err != nil {
				return fmt.Errorf("rerouting baseline: %w", err)
			}
			s.rerouted = true
			res.ReroutedAt = net.Cycle()
		}
		if s.mitigated && res.FirstTrojanAt == 0 {
			for _, w := range a.wires {
				if w.Detector.Classification() == detect.Trojan {
					res.FirstTrojanAt = net.Cycle()
					break
				}
			}
		}
		if int(net.Cycle())%cfg.SampleEvery == 0 {
			if err := s.sample(); err != nil {
				return err
			}
		}
	}
	return nil
}

// sample takes the per-window observations: occupancy, the secure-ack
// window (and conviction-driven recovery), and the localization trace.
func (s *run) sample() error {
	a, net, res, ackmon := s.a, s.a.net, s.res, s.ackmon
	smp := Sample{Occupancy: net.Occupancy()}
	if s.tdm != nil {
		for d := 0; d < qos.NumDomains; d++ {
			smp.Domain[d] = s.tdm.OccupancyOf(net, d)
		}
	}
	res.Samples = append(res.Samples, smp)
	if ackmon != nil {
		for _, l := range net.LinkSlice() {
			op := net.LinkOutput(l.ID)
			ackmon.Observe(l.ID, detect.AckObservation{
				FlitsSent:       op.FlitsSent,
				FlitsRecv:       op.FlitsRecv,
				RouteViolations: op.RouteViolations,
				Blocked:         net.LinkBlocked(l.ID),
			})
		}
		ackmon.FinishWindow()
		if res.AckFlaggedAt == 0 && ackmon.Flagged() > 0 {
			res.AckFlaggedAt = net.Cycle()
		}
		if s.recoverOn {
			// Conviction-driven recovery: every newly convicted link joins
			// the cumulative reconfiguration set and the routes rebuild
			// around it — retransmit-around on the surviving topology.
			newly := false
			for _, l := range net.LinkSlice() {
				if c := ackmon.Class(l.ID); (c == detect.AckDropper || c == detect.AckMisroute) && !a.disabled[l.ID] {
					a.disabled[l.ID] = true
					res.RecoveredLinks = append(res.RecoveredLinks, l.ID)
					newly = true
				}
			}
			if newly {
				if res.RecoveredAt == 0 {
					res.RecoveredAt = net.Cycle()
					res.AtRecover = net.Counters
					res.VictimAtRecover = res.VictimDelivered
				}
				if _, err := reroute.ApplySafe(net, a.disabled); err != nil {
					return fmt.Errorf("recover-on-convict: %w", err)
				}
			}
		}
	}
	if s.tel != nil {
		s.tel.Sample()
		if net.Cycle() >= s.enableAt {
			ranked := s.eng.Rank(s.tel, s.evidence())
			res.SuspectTrace = append(res.SuspectTrace, locate.TraceSample{
				Cycle:      net.Cycle(),
				LinkID:     ranked[0].LinkID,
				Score:      ranked[0].Score,
				Confidence: ranked[0].Confidence,
			})
		}
	}
	return nil
}

// finish fills the end-of-run results.
func (s *run) finish() {
	a, net, cfg, res := s.a, s.a.net, &s.cfg, s.res
	res.Final = net.Counters
	if cfg.Measure > 0 {
		res.Throughput = float64(res.Final.DeliveredPackets-res.AtEnable.DeliveredPackets) / float64(cfg.Measure)
	}
	res.AvgLatency = res.Final.AvgLatency()
	for _, t := range s.trojans {
		m, st := t.Stats()
		res.HTMatches += m
		res.HTInjections += st
	}
	if s.ackmon != nil {
		for _, l := range net.LinkSlice() {
			if c := s.ackmon.Class(l.ID); c != detect.AckHealthy {
				res.AckVerdicts[l.ID] = c
				if ch := s.ackmon.Channel(l.ID); ch != detect.ChannelNone {
					res.AckChannels[l.ID] = ch
				}
			}
		}
	}
	if s.eng != nil {
		res.Suspects = s.eng.Rank(s.tel, s.evidence())
		res.SuspectsTelemetry = s.eng.RankWeighted(locate.TelemetryWeights(), s.tel, nil)
	}
	for _, l := range net.LinkSlice() {
		w := a.wires[l.ID]
		res.Obfuscated += w.Obfuscated
		res.StallCycles += w.StallCycles
		res.BISTScans += w.BISTScans
		if cl := w.Detector.Classification(); cl != detect.Healthy {
			res.Detections[l.ID] = cl
			res.TriggerScopes[l.ID] = w.Detector.TriggerScope()
		}
	}
}
