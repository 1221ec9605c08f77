package main

import (
	"fmt"
	"os"
	"time"

	"tasp/internal/core"
	"tasp/internal/exp"
	"tasp/internal/traffic"
)

// paperBench is the fig1 trace of the canonical `-exp all` run.
const paperBench = "blackscholes"

// paperEval regenerates the paper: the whole exp registry through
// exp.RunAll at two workers, each experiment's section checked against the
// serial output for the seed.
type paperEval struct {
	seed uint64
	reg  []exp.Experiment
	ref  []string // serial rendering per experiment
	bad  []bool   // serial rendering disagrees with the stored digest
}

func newPaperEval(seed uint64) *paperEval { return &paperEval{seed: seed} }

// platformConfigs are the platforms the paper's experiments pin: the
// default protocol on the 4x4 mesh with each Figure 10 trace.
func (p *paperEval) platformConfigs() []core.ExperimentConfig {
	var out []core.ExperimentConfig
	for _, b := range exp.Figure10Benches {
		cfg := core.DefaultExperiment()
		cfg.Benchmark, cfg.Seed = b, p.seed
		out = append(out, cfg)
	}
	return out
}

func (p *paperEval) setup() (setupCost, error) {
	t0 := time.Now()
	p.reg = exp.Registry(paperBench)
	var c setupCost
	for _, cfg := range p.platformConfigs() {
		d, err := coldRun(cfg)
		if err != nil {
			return c, err
		}
		c.cold = append(c.cold, d)
	}
	c.total = time.Since(t0)
	return c, nil
}

// coldRun builds one platform on a fresh Runner: a zero-cycle RunInto.
func coldRun(cfg core.ExperimentConfig) (time.Duration, error) {
	cfg.Warmup, cfg.Measure = 0, 0
	t0 := time.Now()
	err := core.NewRunner().RunInto(cfg, &core.Results{})
	return time.Since(t0), err
}

func renderSection(r exp.Result) string {
	s, err := exp.RenderAll([]exp.Result{r})
	if err != nil {
		return s + "error: " + err.Error() + "\n"
	}
	return s
}

func (p *paperEval) reference() error {
	results := exp.RunAll(guard(p.reg, nil, -1), p.seed, 1)
	p.ref = make([]string, len(results))
	p.bad = make([]bool, len(results))
	var want []string
	if p.seed == refSeed {
		var err error
		if want, err = refDigests("paper-eval"); err != nil {
			return err
		}
		if len(want) != len(results) {
			return fmt.Errorf("%d stored digests for %d experiments", len(want), len(results))
		}
	}
	for i, r := range results {
		p.ref[i] = renderSection(r)
		if r.Err != nil {
			p.bad[i] = true
			fmt.Fprintf(os.Stderr, "paper-eval: serial %s: %v\n", r.ID, r.Err)
		}
		if want != nil && want[i] != r.ID+" "+digest([]byte(p.ref[i])) {
			p.bad[i] = true
			fmt.Fprintf(os.Stderr, "paper-eval: serial %s differs from its stored digest\n", r.ID)
		}
	}
	return nil
}

// guard wraps each Experiment.Run so a panic returns as the experiment's
// error, and with a tracer, in a span under root. The wrapped slice goes
// to the same exp.RunAll.
func guard(reg []exp.Experiment, tr *tracer, root int32) []exp.Experiment {
	out := make([]exp.Experiment, len(reg))
	for i, e := range reg {
		out[i] = exp.Experiment{ID: e.ID, Run: func(seed uint64) (ts []exp.Table, err error) {
			id := tr.start("exp."+e.ID, root, int32(i))
			defer tr.end(id)
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("panic: %v", r)
				}
			}()
			return e.Run(seed)
		}}
	}
	return out
}

// pass runs the registry at two workers, every section checked.
func (p *paperEval) pass(tr *tracer) passResult {
	root := tr.start("exp.run_all", -1, -1)
	results := exp.RunAll(guard(p.reg, tr, root), p.seed, workers)
	tr.end(root)
	var r passResult
	for i, res := range results {
		r.attempted++
		if p.bad[i] || res.Err != nil || renderSection(res) != p.ref[i] {
			r.failed++
			fmt.Fprintf(os.Stderr, "paper-eval: %s differs from the serial output (seed %d)\n", res.ID, p.seed)
		}
	}
	r.spans = tr.finish()
	return r
}

func (p *paperEval) simCycles() int64 { return 0 }

func (p *paperEval) layers(m map[string]float64, traced []passResult, costs []setupCost) error {
	var sum, longest, idle, fig10, abl, sat []float64
	for _, t := range traced {
		var s, l time.Duration
		var root span
		for _, sp := range t.spans {
			d := time.Duration(sp.dur())
			switch {
			case sp.Parent < 0:
				root = sp
				continue
			case sp.Name == "exp.fig10":
				fig10 = append(fig10, d.Seconds())
			case sp.Name == "exp.ablations":
				abl = append(abl, d.Seconds())
			case sp.Name == "exp.saturation":
				sat = append(sat, d.Seconds())
			}
			s += d
			l = max(l, d)
		}
		sum = append(sum, s.Seconds())
		longest = append(longest, l.Seconds())
		idle = append(idle, idleFrac(s, time.Duration(root.dur()), workers))
	}
	m["exp.sum_s"], m["exp.longest_s"], m["exp.idle_frac"] = median(sum), median(longest), median(idle)
	m["exp.fig10_s"], m["exp.ablations_s"], m["exp.saturation_s"] = median(fig10), median(abl), median(sat)
	m["core.cold_ms"] = coldMs(costs)
	cfgs := p.platformConfigs()
	ms, err := modelBuildMs(cfgs)
	if err != nil {
		return err
	}
	m["traffic.model_build_ms"] = ms
	// The probes replay the default protocol under the mitigations the
	// paper compares on the continued-use side of Figure 10.
	var probes []probeConfig
	for _, mit := range []core.Mitigation{core.NoMitigation, core.S2SLOb, core.Rerouting} {
		cfg := cfgs[0]
		cfg.Mitigation = mit
		probes = append(probes, probeConfig{cfg: cfg, weight: 1})
	}
	probeLayers(m, probes, 0)
	return nil
}

// coldMs is the median over set-ups of the mean zero-cycle RunInto.
func coldMs(costs []setupCost) float64 {
	per := make([]float64, len(costs))
	for i, c := range costs {
		var sum time.Duration
		for _, d := range c.cold {
			sum += d
		}
		if len(c.cold) > 0 {
			per[i] = float64(sum.Microseconds()) / 1e3 / float64(len(c.cold))
		}
	}
	return median(per)
}

// modelBuildMs is the mean time to build one of the configs' distinct
// traffic models, each the median of three builds.
func modelBuildMs(cfgs []core.ExperimentConfig) (float64, error) {
	type key struct {
		bench string
		cfg   any
	}
	seen := map[key]bool{}
	var total float64
	for _, c := range cfgs {
		k := key{c.Benchmark, c.Noc}
		if seen[k] {
			continue
		}
		seen[k] = true
		var ds []float64
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			if _, err := traffic.Benchmark(c.Benchmark, c.Noc); err != nil {
				return 0, err
			}
			ds = append(ds, float64(time.Since(t0).Nanoseconds())/1e6)
		}
		total += median(ds)
	}
	return total / float64(len(seen)), nil
}
