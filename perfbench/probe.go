package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"tasp/internal/core"
	"tasp/internal/detect"
	"tasp/internal/fault"
	"tasp/internal/flit"
	"tasp/internal/locate"
	"tasp/internal/noc"
	"tasp/internal/reroute"
	"tasp/internal/tasp"
	"tasp/internal/traffic"
)

// probeConfig is one distinct configuration of a workload and how many of
// the workload's points run it.
type probeConfig struct {
	cfg    core.ExperimentConfig
	weight int
}

// layerCost is what a probe measured on one configuration, after warm-up.
type layerCost struct {
	cycles      int
	stepNs      int64
	tickNs      int64
	allNs       int64   // Step + TickInto over every cycle, warm-up included
	inflight    float64 // flits in flight summed over measured samples
	samples     int
	wireCalls   int
	wireNs      int64
	windows     int
	windowNs    int64
	ranks       int
	rankNs      int64
	applies     int
	applyNs     int64
	safeApplies int
	safeApplyNs int64
	final       noc.Counters
}

// timedWire times each call into the SecureWire it wraps.
type timedWire struct {
	w     *core.SecureWire
	calls int
	ns    int64
	on    bool
}

func (t *timedWire) Transmit(cycle uint64, f flit.Flit, vc uint8, attempt int) (flit.Flit, noc.TxResult) {
	if !t.on {
		return t.w.Transmit(cycle, f, vc, attempt)
	}
	t0 := time.Now()
	out, r := t.w.Transmit(cycle, f, vc, attempt)
	t.ns += time.Since(t0).Nanoseconds()
	t.calls++
	return out, r
}

// probe replays one point on a platform assembled from the layers' public
// constructors, the way core.Runner.RunInto assembles it (for the none,
// s2s-lob and rerouting mitigations and the secure-ack, locate and
// recover options), and times each layer's public entry point once the
// warm-up has brought the network to the point's steady load. With
// timeWires, each link's SecureWire.Transmit is timed instead of Step and
// TickInto (per-call timing would inflate Step). The replay simulates the
// same cycles as RunInto: its final counters match the point's.
func probe(cfg core.ExperimentConfig, timeWires bool) (c layerCost, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic in replay: %v", p)
		}
	}()
	if cfg.Mitigation != core.NoMitigation && cfg.Mitigation != core.S2SLOb && cfg.Mitigation != core.Rerouting {
		return c, fmt.Errorf("probe: mitigation %v not replayed", cfg.Mitigation)
	}
	// A zero-cycle run resolves the attacker's placement and hijack router.
	zero := cfg
	zero.Warmup, zero.Measure = 0, 0
	res := &core.Results{}
	if err := core.NewRunner().RunInto(zero, res); err != nil {
		return c, err
	}
	net, err := noc.New(cfg.Noc)
	if err != nil {
		return c, err
	}
	model, err := traffic.Benchmark(cfg.Benchmark, cfg.Noc)
	if err != nil {
		return c, err
	}
	layout := net.Layout()
	links := net.LinkSlice()
	infected := res.InfectedLinks
	trojans := make([]tasp.Trojan, 0, len(infected))
	if cfg.Attack.Enabled {
		var coord *tasp.Collusion
		for i := range infected {
			t := cfg.Attack.Target
			var ht tasp.Trojan
			switch cfg.Attack.Kind {
			case tasp.KindDrop:
				ht = tasp.NewDropper(t, layout)
			case tasp.KindMisroute:
				ht = tasp.NewMisrouter(t, uint8(res.HijackRouter), layout)
			case tasp.KindThrottle:
				ht = tasp.NewThrottledDropper(t, layout, cfg.Attack.DutyPeriod, cfg.Attack.DutyActive)
			case tasp.KindCollude:
				if coord == nil {
					coord = tasp.NewCollusion(cfg.Attack.DutyPeriod)
				}
				cd := tasp.NewColludingDropper(t, layout, coord)
				cd.SetRole(i, len(infected))
				ht = cd
			default:
				yBits := cfg.Attack.YBits
				if yBits == 0 {
					yBits = tasp.DefaultPayloadBits
				}
				ht = tasp.New(t, yBits, layout)
			}
			trojans = append(trojans, ht)
		}
	}
	isInfected := map[int]bool{}
	for _, id := range infected {
		isInfected[id] = true
	}
	wires := make([]*core.SecureWire, len(links))
	var timers []*timedWire
	ti := 0
	for _, l := range links {
		// Trojans go to the infected links in link order, as RunInto
		// deploys them (a colluder's role is its index in the set).
		var tap fault.Adversary = fault.None
		if isInfected[l.ID] && ti < len(trojans) {
			chain := fault.Chain{trojans[ti]}
			tap = &chain
			ti++
		}
		w := core.NewSecureWire(tap, cfg.Seed^0x10b^uint64(l.ID), layout)
		w.Mitigated = cfg.Mitigation == core.S2SLOb
		wires[l.ID] = w
		if timeWires {
			tw := &timedWire{w: w}
			timers = append(timers, tw)
			net.SetWire(l.ID, tw)
		} else {
			net.SetWire(l.ID, w)
		}
	}

	var tel *noc.LinkTelemetry
	var eng *locate.Engine
	evidence := map[int]locate.LinkEvidence{}
	if cfg.Locate {
		tel = net.EnableTelemetry(0)
		eng = locate.New(net.Topology(), links)
	}
	var ackmon *detect.AckMonitor
	if cfg.SecureAck {
		ackmon = detect.NewAckMonitor(len(links))
		ackmon.DeficitRatio = cfg.AckDeficitRatio
	}
	disabled := map[int]bool{}
	gen := model.Generator(cfg.Seed)
	var pkt flit.Packet
	enableAt := uint64(cfg.Warmup)
	const sampleEvery, rerouteDelay = 25, 200
	rerouted := false
	for cyc := 0; cyc < cfg.Warmup+cfg.Measure; cyc++ {
		measured := cyc >= cfg.Warmup
		if net.Cycle()+1 == enableAt {
			for _, ht := range trojans {
				ht.SetKillSwitch(true)
			}
		}
		if !timeWires {
			t0 := time.Now()
			gen.TickInto(&pkt, net.Inject)
			t1 := time.Now()
			net.Step()
			step, tick := time.Since(t1).Nanoseconds(), t1.Sub(t0).Nanoseconds()
			c.allNs += step + tick
			if measured {
				c.stepNs += step
				c.tickNs += tick
			}
		} else {
			for _, tw := range timers {
				tw.on = measured
			}
			gen.TickInto(&pkt, net.Inject)
			net.Step()
		}
		if measured {
			c.cycles++
		}
		if cfg.Mitigation == core.Rerouting && !rerouted && cfg.Attack.Enabled &&
			net.Cycle() >= enableAt+rerouteDelay {
			for _, id := range infected {
				disabled[id] = true
			}
			t0 := time.Now()
			if _, err := reroute.Apply(net, disabled); err != nil {
				return c, err
			}
			c.applyNs += time.Since(t0).Nanoseconds()
			c.applies++
			rerouted = true
		}
		if int(net.Cycle())%sampleEvery != 0 {
			continue
		}
		if measured {
			occ := net.Occupancy()
			c.inflight += float64(occ.InputFlits + occ.OutputFlits)
			c.samples++
		}
		if ackmon != nil {
			t0 := time.Now()
			for _, l := range links {
				op := net.LinkOutput(l.ID)
				ackmon.Observe(l.ID, detect.AckObservation{
					FlitsSent:       op.FlitsSent,
					FlitsRecv:       op.FlitsRecv,
					RouteViolations: op.RouteViolations,
					Blocked:         net.LinkBlocked(l.ID),
				})
			}
			ackmon.FinishWindow()
			if measured {
				c.windowNs += time.Since(t0).Nanoseconds()
				c.windows++
			}
			if cfg.RecoverOnConvict {
				newly := false
				for _, l := range links {
					if k := ackmon.Class(l.ID); (k == detect.AckDropper || k == detect.AckMisroute) && !disabled[l.ID] {
						disabled[l.ID] = true
						newly = true
					}
				}
				if newly {
					t0 := time.Now()
					if _, err := reroute.ApplySafe(net, disabled); err != nil {
						return c, err
					}
					c.safeApplyNs += time.Since(t0).Nanoseconds()
					c.safeApplies++
				}
			}
		}
		if tel != nil {
			tel.Sample()
			if net.Cycle() >= enableAt {
				for _, l := range links {
					op := net.LinkOutput(l.ID)
					var gap uint64
					if op.FlitsSent > op.FlitsRecv {
						gap = op.FlitsSent - op.FlitsRecv
					}
					ev := locate.LinkEvidence{
						Class:           wires[l.ID].Detector.Classification(),
						Retransmissions: op.Retransmissions,
						FlitsSent:       op.FlitsSent,
						AckGap:          gap,
						RouteViolations: op.RouteViolations,
					}
					if ackmon != nil {
						ev.Ack = ackmon.Class(l.ID)
					}
					evidence[l.ID] = ev
				}
				t0 := time.Now()
				eng.Rank(tel, evidence)
				c.rankNs += time.Since(t0).Nanoseconds()
				c.ranks++
			}
		}
	}
	for _, tw := range timers {
		c.wireCalls += tw.calls
		c.wireNs += tw.ns
	}
	c.final = net.Counters
	return c, nil
}

// platformName names a 4x4 or 8x8 substrate as the per-platform Step
// metrics do ("mesh4", "torus8").
func platformName(n noc.Config) string {
	return fmt.Sprintf("%s%d", n.TopoName(), n.Width)
}

// probeLayers probes every configuration (once plain, once timing the
// wires) on the workload's two workers, and sets the layer costs, each
// configuration weighted by the cycles the workload simulates on it.
// nsPerCycle is the traced RunInto cost per cycle (0 when the workload's
// points are not traced); the overhead beside Step and TickInto is taken
// against their cost over every cycle, warm-up included, as RunInto's is.
func probeLayers(m map[string]float64, probes []probeConfig, nsPerCycle float64) {
	plain := make([]layerCost, len(probes))
	wired := make([]layerCost, len(probes))
	errs := make([]error, len(probes))
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := wk; i < len(probes); i += workers {
				if plain[i], errs[i] = probe(probes[i].cfg, false); errs[i] == nil {
					wired[i], errs[i] = probe(probes[i].cfg, true)
				}
			}
		}()
	}
	wg.Wait()

	var wsum, step, tick, all, flits, wireNs, wireCalls float64
	var windowNs, windows, rankNs, ranks, applyNs, applies, safeNs, safes float64
	perPlat, platW := map[string]float64{}, map[string]float64{}
	for i, p := range probes {
		if errs[i] != nil {
			// A configuration the program cannot run has no layer costs;
			// its points already count as failed operations.
			fmt.Fprintf(os.Stderr, "probe %s %s seed %d left out: %v\n",
				platformName(p.cfg.Noc), p.cfg.Attack.Kind, p.cfg.Seed, errs[i])
			continue
		}
		c, cw := plain[i], wired[i]
		cycles := p.cfg.Warmup + p.cfg.Measure
		w := float64(p.weight) * float64(cycles)
		stepPC := float64(c.stepNs) / float64(c.cycles)
		wsum += w
		step += w * stepPC
		tick += w * float64(c.tickNs) / float64(c.cycles)
		all += w * float64(c.allNs) / float64(cycles)
		if c.samples > 0 {
			flits += w * c.inflight / float64(c.samples)
		}
		name := platformName(p.cfg.Noc)
		perPlat[name] += w * stepPC
		platW[name] += w
		pw := float64(p.weight)
		wireNs += pw * float64(cw.wireNs)
		wireCalls += pw * float64(cw.wireCalls)
		windowNs += pw * float64(c.windowNs)
		windows += pw * float64(c.windows)
		rankNs += pw * float64(c.rankNs)
		ranks += pw * float64(c.ranks)
		applyNs += pw * float64(c.applyNs)
		applies += pw * float64(c.applies)
		safeNs += pw * float64(c.safeApplyNs)
		safes += pw * float64(c.safeApplies)
	}
	for name, v := range perPlat {
		m["noc.step_ns_per_cycle."+name] = v / platW[name]
	}
	if wsum == 0 {
		return
	}
	step, tick = step/wsum, tick/wsum
	if flits > 0 {
		m["noc.step_ns_per_flit"] = step / (flits / wsum)
	}
	m["traffic.tick_ns_per_cycle"] = tick
	if nsPerCycle > 0 {
		m["core.overhead_ns_per_cycle"] = nsPerCycle - all/wsum
	}
	if wireCalls > 0 {
		m["core.securewire_ns_per_flit"] = wireNs / wireCalls
	}
	if windows > 0 {
		m["detect.window_us"] = windowNs / windows / 1e3
	}
	if ranks > 0 {
		m["locate.rank_us"] = rankNs / ranks / 1e3
	}
	if applies > 0 {
		m["reroute.apply_ms"] = applyNs / applies / 1e6
	}
	if safes > 0 {
		m["reroute.apply_safe_ms"] = safeNs / safes / 1e6
	}
}
