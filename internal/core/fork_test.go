package core

import (
	"fmt"
	"reflect"
	"testing"

	"tasp/internal/noc"
	"tasp/internal/tasp"
	"tasp/internal/traffic"
	"tasp/internal/xrand"
)

// forkPlatforms are the substrates the fork tests cover.
var forkPlatforms = []struct {
	topo string
	w, h int
}{{"mesh", 4, 4}, {"torus", 4, 4}, {"ring", 4, 4}, {"mesh", 8, 8}}

// forkFamilies are the five trojan families.
var forkFamilies = []tasp.Kind{tasp.KindFlip, tasp.KindDrop, tasp.KindMisroute, tasp.KindThrottle, tasp.KindCollude}

// forkCase is an attacked run whose warm-up is shorter than the rerouting
// baseline's detection delay and whose measure phase is longer, so both the
// s2s-lob arm (at enable) and the rerouting arm (200 cycles later) fork
// inside the run.
func forkCase(topo string, w, h int, kind tasp.Kind, m Mitigation) ExperimentConfig {
	cfg := DefaultExperiment()
	cfg.Noc.Topo, cfg.Noc.Width, cfg.Noc.Height = topo, w, h
	cfg.Warmup, cfg.Measure = 150, 300
	cfg.Attack.Kind = kind
	cfg.Mitigation = m
	return cfg
}

// TestDivergesAt pins the divergence rule case by case, including every
// configuration it must decline.
func TestDivergesAt(t *testing.T) {
	at := func(edit func(*ExperimentConfig)) uint64 {
		cfg := DefaultExperiment() // attacked, flip family, enable at 1500
		edit(&cfg)
		return cfg.DivergesAt()
	}
	for _, c := range []struct {
		name string
		edit func(*ExperimentConfig)
		want uint64
	}{
		{"none", func(c *ExperimentConfig) {}, NeverDiverges},
		{"s2s-lob, flip", func(c *ExperimentConfig) { c.Mitigation = S2SLOb }, 1500},
		{"s2s-lob, explicit enable", func(c *ExperimentConfig) { c.Mitigation, c.Attack.EnableAt = S2SLOb, 700 }, 700},
		{"rerouting", func(c *ExperimentConfig) { c.Mitigation = Rerouting }, 1700},
		{"rerouting, own delay", func(c *ExperimentConfig) { c.Mitigation, c.RerouteDetectDelay = Rerouting, 50 }, 1550},
		{"s2s-lob, fault-free", func(c *ExperimentConfig) { c.Mitigation, c.Attack.Enabled = S2SLOb, false }, NeverDiverges},
		{"rerouting, fault-free", func(c *ExperimentConfig) { c.Mitigation, c.Attack.Enabled = Rerouting, false }, NeverDiverges},
		{"fault-free with every layer", func(c *ExperimentConfig) {
			c.Mitigation, c.Attack.Enabled = Rerouting, false
			c.SecureAck, c.Locate, c.RecoverOnConvict = true, true, true
		}, NeverDiverges},
		{"s2s-lob, drop", func(c *ExperimentConfig) { c.Mitigation, c.Attack.Kind = S2SLOb, tasp.KindDrop }, NeverDiverges},
		{"s2s-lob, misroute", func(c *ExperimentConfig) { c.Mitigation, c.Attack.Kind = S2SLOb, tasp.KindMisroute }, NeverDiverges},
		{"s2s-lob, throttle", func(c *ExperimentConfig) { c.Mitigation, c.Attack.Kind = S2SLOb, tasp.KindThrottle }, NeverDiverges},
		{"s2s-lob, collude", func(c *ExperimentConfig) { c.Mitigation, c.Attack.Kind = S2SLOb, tasp.KindCollude }, NeverDiverges},
		{"rerouting, drop", func(c *ExperimentConfig) { c.Mitigation, c.Attack.Kind = Rerouting, tasp.KindDrop }, 1700},
		// Declined: state a fork does not copy, or a run that differs at once.
		{"e2e-obfuscation", func(c *ExperimentConfig) { c.Mitigation = E2EObfuscation }, 0},
		{"e2e-obfuscation, fault-free", func(c *ExperimentConfig) { c.Mitigation, c.Attack.Enabled = E2EObfuscation, false }, 0},
		{"tdm-qos", func(c *ExperimentConfig) { c.Mitigation = TDMQoS }, 0},
		{"tdm-qos, fault-free", func(c *ExperimentConfig) { c.Mitigation, c.Attack.Enabled = TDMQoS, false }, 0},
		{"transient upsets", func(c *ExperimentConfig) { c.Mitigation, c.TransientBER = S2SLOb, 1e-4 }, 0},
		{"transient upsets, fault-free", func(c *ExperimentConfig) {
			c.Mitigation, c.TransientBER, c.Attack.Enabled = Rerouting, 1e-4, false
		}, 0},
		{"secure-ack", func(c *ExperimentConfig) { c.Mitigation, c.SecureAck = S2SLOb, true }, 0},
		{"locate", func(c *ExperimentConfig) { c.Mitigation, c.Locate = Rerouting, true }, 0},
		{"recover-on-convict", func(c *ExperimentConfig) { c.Mitigation, c.RecoverOnConvict = S2SLOb, true }, 0},
		{"predisabled links", func(c *ExperimentConfig) { c.Mitigation, c.PredisabledLinks = Rerouting, []int{3} }, 0},
	} {
		if got := at(c.edit); got != c.want {
			t.Errorf("%s: DivergesAt = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestInertMitigationMatchesNone pins the equivalence a "never diverges"
// answer claims, which lets the campaign engine run one simulation for
// points that differ only in such a mitigation: on fault-free runs the
// s2s-lob and rerouting arms, and under the non-flip families the s2s-lob
// arm, produce Results deeply equal to the unmitigated run — time series,
// latency histogram and localization trace included — once
// Config.Mitigation is masked.
func TestInertMitigationMatchesNone(t *testing.T) {
	check := func(base ExperimentConfig, arms []Mitigation, what string) {
		t.Helper()
		want, err := Run(base)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Samples) == 0 || want.Final.DeliveredPackets == 0 || (base.Locate && len(want.SuspectTrace) == 0) {
			t.Fatalf("%s: the reference run is empty", what)
		}
		for _, m := range arms {
			cfg := base
			cfg.Mitigation = m
			if cfg.DivergesAt() != NeverDiverges {
				t.Fatalf("%s: %s is not inert", what, m)
			}
			got, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got.Config.Mitigation = NoMitigation
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: %s results differ from none:\n%s\n%s", what, m, summarize(got), summarize(want))
			}
		}
	}
	for _, p := range forkPlatforms {
		for _, layers := range []bool{false, true} {
			base := DefaultExperiment()
			base.Noc.Topo, base.Noc.Width, base.Noc.Height = p.topo, p.w, p.h
			base.Warmup, base.Measure = 300, 300
			base.Attack.Enabled = false
			base.SecureAck, base.Locate, base.RecoverOnConvict = layers, layers, layers
			check(base, []Mitigation{S2SLOb, Rerouting}, fmt.Sprintf("%s %dx%d layers=%v", p.topo, p.w, p.h, layers))
		}
		for _, kind := range forkFamilies[1:] {
			base := forkCase(p.topo, p.w, p.h, kind, NoMitigation)
			check(base, []Mitigation{S2SLOb}, fmt.Sprintf("%s %dx%d %s", p.topo, p.w, p.h, kind))
		}
	}
}

// TestForkedArmsMatchFullRuns checks RunGroup's exactness: on every
// platform and trojan family, a group of the unmitigated trunk and its
// forking s2s-lob and rerouting arms yields, for each member, Results
// deeply equal to running that configuration alone.
func TestForkedArmsMatchFullRuns(t *testing.T) {
	r := NewRunner()
	forks := 0
	for _, p := range forkPlatforms {
		for _, kind := range forkFamilies {
			trunk := forkCase(p.topo, p.w, p.h, kind, NoMitigation)
			total := uint64(trunk.Warmup + trunk.Measure)
			var arms []Mitigation
			var armRes []*Results
			for _, m := range []Mitigation{S2SLOb, Rerouting} { // fork order
				cfg := trunk
				cfg.Mitigation = m
				if d := cfg.DivergesAt(); d > 0 && d <= total {
					arms = append(arms, m)
					armRes = append(armRes, &Results{})
				}
			}
			forks += len(arms)
			trunkRes := &Results{}
			if err := r.RunGroup(trunk, trunkRes, arms, armRes); err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("%s %dx%d %s", p.topo, p.w, p.h, kind)
			want, err := Run(trunk)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(trunkRes, want) {
				t.Errorf("%s: the trunk differs from its full run:\n%s\n%s", what, summarize(trunkRes), summarize(want))
			}
			for i, m := range arms {
				cfg := trunk
				cfg.Mitigation = m
				want, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(armRes[i], want) {
					t.Errorf("%s: forked %s differs from its full run:\n%s\n%s", what, m, summarize(armRes[i]), summarize(want))
				}
				if m == Rerouting && want.ReroutedAt == 0 {
					t.Errorf("%s: the rerouting arm never reconfigured, so its fork proves nothing", what)
				}
				if m == S2SLOb && want.Obfuscated == 0 {
					t.Errorf("%s: the s2s-lob arm never obfuscated, so its fork proves nothing", what)
				}
			}
		}
	}
	// Flip: s2s-lob and rerouting fork; the other families: rerouting only.
	if want := len(forkPlatforms) * (2 + 4); forks != want {
		t.Errorf("forked %d arms, want %d", forks, want)
	}
}

// TestRunGroupUnrecordedTrunk checks that a group whose trunk is not
// recorded still forks its arms exactly.
func TestRunGroupUnrecordedTrunk(t *testing.T) {
	trunk := forkCase("mesh", 4, 4, tasp.KindFlip, NoMitigation)
	arms := []Mitigation{S2SLOb, Rerouting}
	res := []*Results{{}, {}}
	if err := NewRunner().RunGroup(trunk, nil, arms, res); err != nil {
		t.Fatal(err)
	}
	for i, m := range arms {
		cfg := trunk
		cfg.Mitigation = m
		want, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res[i], want) {
			t.Errorf("%s forked from an unrecorded trunk differs from its full run", m)
		}
	}
}

// TestRunGroupRejectsBadGroups checks RunGroup's preconditions.
func TestRunGroupRejectsBadGroups(t *testing.T) {
	trunk := forkCase("mesh", 4, 4, tasp.KindFlip, NoMitigation)
	r := NewRunner()
	two := []*Results{{}, {}}
	if err := r.RunGroup(trunk, nil, []Mitigation{Rerouting, S2SLOb}, two); err == nil {
		t.Error("arms out of fork order accepted")
	}
	if err := r.RunGroup(trunk, nil, []Mitigation{TDMQoS}, two[:1]); err == nil {
		t.Error("an arm that cannot fork accepted")
	}
	if err := r.RunGroup(trunk, nil, []Mitigation{S2SLOb}, two); err == nil {
		t.Error("mismatched results accepted")
	}
	mitigated := trunk
	mitigated.Mitigation = S2SLOb
	if err := r.RunGroup(mitigated, nil, []Mitigation{Rerouting}, two[:1]); err == nil {
		t.Error("a mitigated trunk accepted")
	}
}

// forkAt simulates trunk on the Runner's arena up to cycle c and begins arm
// on the twin arena as a copy of it.
func forkAt(t *testing.T, r *Runner, trunk, arm ExperimentConfig, c uint64) (src, dst *run) {
	t.Helper()
	src, err := r.begin(trunk, &Results{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.advance(c); err != nil {
		t.Fatal(err)
	}
	dst, err = r.begin(arm, &Results{}, true)
	if err != nil {
		t.Fatal(err)
	}
	dst.copyFrom(src)
	return src, dst
}

// cloneCycle picks the cycle a clone test copies a configuration at: a
// random cycle anywhere in the run, or before the first reconfiguration for
// rerouting, whose replaced routes a copy cannot carry.
func cloneCycle(rng *xrand.RNG, cfg ExperimentConfig) uint64 {
	end := uint64(cfg.Warmup + cfg.Measure)
	if cfg.Mitigation == Rerouting {
		end = cfg.DivergesAt() - 1
	}
	return uint64(rng.Intn(int(end) + 1))
}

// TestCloneContinue copies a run at a random cycle into a fresh arena,
// continues the copy to the end, and requires Results deeply equal to the
// uninterrupted run — the copy's completeness, judged by behaviour.
func TestCloneContinue(t *testing.T) {
	rng := xrand.New(7)
	r := NewRunner()
	for _, p := range forkPlatforms {
		for _, kind := range forkFamilies {
			for _, m := range []Mitigation{NoMitigation, S2SLOb, Rerouting} {
				cfg := forkCase(p.topo, p.w, p.h, kind, m)
				c := cloneCycle(rng, cfg)
				_, dst := forkAt(t, r, cfg, cfg, c)
				if err := dst.advance(dst.total); err != nil {
					t.Fatal(err)
				}
				dst.finish()
				want, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(dst.res, want) {
					t.Errorf("%s %dx%d %s %s copied at cycle %d: continued run differs:\n%s\n%s",
						p.topo, p.w, p.h, kind, m, c, summarize(dst.res), summarize(want))
				}
			}
		}
	}
}

// notCopied lists, for every struct type a fork copies, the fields the copy
// leaves alone and why. TestCopyCompleteness requires every other field to
// hold equal state in a run and its copy, and rejects an unlisted function
// field, so a field added later cannot silently break a fork.
var notCopied = map[string]map[string]string{
	"core.run": {
		"a":         "the run's own arena",
		"cfg":       "each run's own configuration (an arm's mitigation differs)",
		"mitigated": "derived from the run's own mitigation",
		"tdm":       "tdm-qos is declined by DivergesAt",
		"e2e":       "e2e-obfuscation is declined by DivergesAt",
		"ackmon":    "SecureAck is declined by DivergesAt",
		"tel":       "Locate is declined by DivergesAt",
		"eng":       "Locate is declined by DivergesAt",
		"recoverOn": "RecoverOnConvict is declined by DivergesAt",
	},
	"core.Results": {
		"Config":            "each run's own configuration",
		"InfectedLinks":     "set by begin from the configuration",
		"HijackRouter":      "set by begin from the configuration",
		"Final":             "written by finish, after the last fork",
		"Throughput":        "written by finish, after the last fork",
		"AvgLatency":        "written by finish, after the last fork",
		"HTMatches":         "written by finish, after the last fork",
		"HTInjections":      "written by finish, after the last fork",
		"Detections":        "written by finish, after the last fork",
		"TriggerScopes":     "written by finish, after the last fork",
		"Obfuscated":        "written by finish, after the last fork",
		"StallCycles":       "written by finish, after the last fork",
		"BISTScans":         "written by finish, after the last fork",
		"AckVerdicts":       "written by finish, after the last fork",
		"AckChannels":       "written by finish, after the last fork",
		"Suspects":          "written by finish, after the last fork",
		"SuspectsTelemetry": "written by finish, after the last fork",
	},
	"core.SecureWire": {
		"Tap":             "per-run configuration: each arena's own fault chain",
		"Mitigated":       "per-run configuration: an arm's own mitigation",
		"EscalationOrder": "per-run configuration",
		"layout":          "fixed at construction",
		"windows":         "derived from the layout at construction",
	},
	"noc.Network": {
		"cfg":        "configuration; CopyFrom panics on a mismatch",
		"layout":     "derived from the configuration",
		"topo":       "derived from the configuration",
		"links":      "structure, fixed at New",
		"route":      "function value; CopyFrom panics once routing is replaced",
		"baseRoute":  "function value, fixed at New",
		"adaptive":   "function value; CopyFrom panics once routing is replaced",
		"schedule":   "function value; CopyFrom panics once a TDM schedule is installed",
		"telemetry":  "the network's own tap; Locate is declined by DivergesAt",
		"injScratch": "scratch buffer, rewritten by every Inject",
		"stall":      "derived from the configuration",
	},
	"noc.Router": {
		"id":       "structure",
		"numPorts": "structure",
		"vcs":      "structure",
		"ups":      "pointers to the network's own upstream ports; structure",
		"sched":    "pointer to the network's own scheduler, copied by Network.CopyFrom",
	},
	"noc.outputPort": {
		"router":   "structure",
		"port":     "structure",
		"linkID":   "structure",
		"ejection": "structure",
		"vcClass":  "dateline tables; only ReclassifyVCs rewrites them, and CopyFrom panics after it",
		"wire":     "each link keeps its own wire; its state is copied by SecureWire.CopyFrom",
	},
	"noc.NI": {
		"router":    "structure",
		"cfg":       "configuration",
		"layout":    "derived from the configuration",
		"rxFree":    "recycle pool; recycled states are overwritten before reuse",
		"sched":     "pointer to the network's own scheduler, copied by Network.CopyFrom",
		"Delivered": "callback into the network's own arena",
	},
	"noc.scheduler": {},
	"detect.Detector": {
		"historyCap": "configuration; CopyFrom panics on a mismatch",
		"free":       "recycle pool; recycled records are overwritten before reuse",
	},
	"lob.MethodLog": {},
	"lob.Keystream": {},
	"traffic.Generator": {
		"m": "the shared model; CopyFrom panics on a mismatch",
	},
	"stats.Histogram": {},
	"tasp.HT": {
		"yBits": "configuration",
		"wires": "derived from the configuration",
	},
	"tasp.Dropper":   {},
	"tasp.Misrouter": {"layout": "configuration", "hijack": "configuration"},
	"tasp.ThrottledDropper": {
		"Period": "configuration (duty cycle)",
		"Active": "configuration (duty cycle)",
	},
	"tasp.ColludingDropper": {
		"coord": "the arena's own coordinator; its slice length is configuration",
		"idx":   "role, assigned by the deployer per run",
		"n":     "role, assigned by the deployer per run",
	},
	"tasp.trigger": {
		"target": "configuration",
		"taps":   "derived from the configuration",
	},
}

// stateWalker compares a run and its copy field by field.
type stateWalker struct {
	t       *testing.T
	seen    map[string]bool
	visited map[[2]uintptr]bool
}

func (w *stateWalker) eq(path string, a, b reflect.Value) {
	switch a.Kind() {
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				w.t.Errorf("%s: nil in one copy only", path)
			}
			return
		}
		key := [2]uintptr{a.Pointer(), b.Pointer()}
		if w.visited[key] {
			return
		}
		w.visited[key] = true
		w.eq(path, a.Elem(), b.Elem())
	case reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				w.t.Errorf("%s: nil in one copy only", path)
			}
			return
		}
		if a.Elem().Type() != b.Elem().Type() {
			w.t.Errorf("%s: %s vs %s", path, a.Elem().Type(), b.Elem().Type())
			return
		}
		w.eq(path, a.Elem(), b.Elem())
	case reflect.Struct:
		typ := a.Type()
		skip, covered := notCopied[typ.String()]
		if covered {
			w.seen[typ.String()] = true
			for name := range skip { //nocvet:orderfree independent existence checks
				if _, ok := typ.FieldByName(name); !ok {
					w.t.Errorf("notCopied names %s.%s, which does not exist", typ, name)
				}
			}
		}
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if _, ok := skip[f.Name]; ok {
				continue
			}
			if covered && f.Type.Kind() == reflect.Func {
				w.t.Errorf("%s.%s is a function value, which a fork never copies: list it in notCopied", typ, f.Name)
				continue
			}
			w.eq(path+"."+f.Name, a.Field(i), b.Field(i))
		}
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			w.t.Errorf("%s: length %d vs %d", path, a.Len(), b.Len())
			return
		}
		for i := 0; i < a.Len(); i++ {
			w.eq(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i))
		}
	case reflect.Map:
		if a.Len() != b.Len() {
			w.t.Errorf("%s: %d entries vs %d", path, a.Len(), b.Len())
			return
		}
		iter := a.MapRange()
		for iter.Next() {
			bv := b.MapIndex(iter.Key())
			if !bv.IsValid() {
				w.t.Errorf("%s: key %v missing from the copy", path, iter.Key())
				continue
			}
			w.eq(fmt.Sprintf("%s[%v]", path, iter.Key()), iter.Value(), bv)
		}
	case reflect.Func:
		if a.IsNil() != b.IsNil() {
			w.t.Errorf("%s: function set in one copy only", path)
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			w.t.Errorf("%s: %v vs %v", path, a.Bool(), b.Bool())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			w.t.Errorf("%s: %d vs %d", path, a.Int(), b.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			w.t.Errorf("%s: %d vs %d", path, a.Uint(), b.Uint())
		}
	case reflect.Float32, reflect.Float64:
		if a.Float() != b.Float() {
			w.t.Errorf("%s: %v vs %v", path, a.Float(), b.Float())
		}
	case reflect.String:
		if a.String() != b.String() {
			w.t.Errorf("%s: %q vs %q", path, a.String(), b.String())
		}
	default:
		w.t.Errorf("%s: unhandled kind %s", path, a.Kind())
	}
}

// TestCopyCompleteness forks s2s-lob runs under every trojan family at a
// random cycle after the attack has been detected, and walks the run and
// its copy: the run itself, its results, the network and every wire. Any
// field that differs and is not in notCopied fails, as does an unlisted
// function field; every type in notCopied must be reached, so the list
// cannot go stale.
func TestCopyCompleteness(t *testing.T) {
	rng := xrand.New(3)
	r := NewRunner()
	w := &stateWalker{t: t, seen: map[string]bool{}}
	for _, kind := range forkFamilies {
		cfg := forkCase("mesh", 4, 4, kind, S2SLOb)
		cfg.Attack.NumLinks = 3
		c := uint64(cfg.Warmup+100) + uint64(rng.Intn(cfg.Measure-100))
		src, dst := forkAt(t, r, cfg, cfg, c)
		w.visited = map[[2]uintptr]bool{}
		w.eq("run", reflect.ValueOf(src).Elem(), reflect.ValueOf(dst).Elem())
		w.eq("net", reflect.ValueOf(src.a.net), reflect.ValueOf(dst.a.net))
		w.eq("wires", reflect.ValueOf(src.a.wires), reflect.ValueOf(dst.a.wires))
		if kind == tasp.KindFlip && src.a.wires[src.res.InfectedLinks[0]].Log.Len() == 0 {
			t.Errorf("the flip fork at cycle %d holds no L-Ob state, so the walk proves little", c)
		}
	}
	// A nearly idle network, forked inside a sleep stretch so the sleep
	// counter is live (a loaded network never sleeps).
	m, err := traffic.Benchmark("blackscholes", noc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	quiet := *m
	quiet.Rate = m.Rate / 50
	cfg := forkCase("mesh", 4, 4, tasp.KindFlip, S2SLOb)
	cfg.Model = &quiet
	src, err := r.begin(cfg, &Results{}, false)
	if err != nil {
		t.Fatal(err)
	}
	asleep := func() bool {
		return reflect.ValueOf(src.a.net).Elem().FieldByName("sleepUntil").Uint() > src.a.net.Cycle()+1
	}
	for !asleep() && src.a.net.Cycle() < src.total {
		if err := src.advance(src.a.net.Cycle() + 1); err != nil {
			t.Fatal(err)
		}
	}
	if !asleep() {
		t.Fatal("the quiet network never slept")
	}
	dst, err := r.begin(cfg, &Results{}, true)
	if err != nil {
		t.Fatal(err)
	}
	dst.copyFrom(src)
	w.visited = map[[2]uintptr]bool{}
	w.eq("net", reflect.ValueOf(src.a.net), reflect.ValueOf(dst.a.net))

	for typ := range notCopied { //nocvet:orderfree independent coverage checks
		if !w.seen[typ] {
			t.Errorf("the walk never reached %s", typ)
		}
	}
}

// TestRunGroupSteadyStateAllocs extends the per-point allocation contract
// to forked groups: once warm, a trunk with a forked s2s-lob arm costs no
// allocation (the copies reuse the twin arena's storage).
func TestRunGroupSteadyStateAllocs(t *testing.T) {
	trunk := forkCase("mesh", 4, 4, tasp.KindFlip, NoMitigation)
	r := NewRunner()
	res := &Results{}
	arms := []Mitigation{S2SLOb}
	armRes := []*Results{{}}
	seed := uint64(1)
	point := func() {
		trunk.Seed = seed
		seed++
		if err := r.RunGroup(trunk, res, arms, armRes); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		point()
	}
	if avg := testing.AllocsPerRun(10, point); avg > 0.1 {
		t.Errorf("warmed RunGroup allocates %.2f times per group; budget is 0", avg)
	}
}
