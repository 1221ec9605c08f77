package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"tasp/internal/campaign"
	"tasp/internal/core"
	"tasp/internal/noc"
)

// sweepSpec is specs/sweep-1080.json with its 30 simulation seeds
// starting at the workload seed: many short, lightly loaded points.
func sweepSpec(seed uint64) campaign.Spec {
	return campaign.Spec{
		Topologies:  []string{"mesh", "torus", "ring"},
		Benchmarks:  []string{"blackscholes", "fft", "canneal"},
		Attacks:     []campaign.AttackSpec{{Kind: "none"}, {Kind: "dest"}},
		Mitigations: []string{"none", "s2s-lob", "rerouting"},
		Seeds:       seedRange(seed, 30),
		Warmup:      300,
		Measure:     300,
	}
}

// defendSpecs are the defence-stack grids: paper-protocol points (1500 +
// 1500 cycles) under every trojan family with secure-ack monitoring and
// localization, plus conviction-driven recovery when recovery is set, on the
// 4x4 substrates and the 8x8 mesh and torus, at two simulation seeds (1 and
// 42 at the reference seed). Each platform and attack is its own grid, so a
// point that crashes the program costs only that grid's records.
func defendSpecs(seed uint64, recovery bool) []campaign.Spec {
	var specs []campaign.Spec
	for _, plat := range []struct {
		topos []string
		dim   campaign.Dim
	}{
		{[]string{"mesh", "torus", "ring"}, campaign.Dim{Width: 4, Height: 4}},
		{[]string{"mesh", "torus"}, campaign.Dim{Width: 8, Height: 8}},
	} {
		for _, topo := range plat.topos {
			for _, mode := range []string{"", "drop", "misroute", "throttle", "collude"} {
				attack := campaign.AttackSpec{Kind: "dest", Mode: mode}
				if mode == "" {
					attack = campaign.AttackSpec{Kind: "none"}
				}
				specs = append(specs, campaign.Spec{
					Topologies:  []string{topo},
					Dims:        []campaign.Dim{plat.dim},
					Benchmarks:  []string{"blackscholes"},
					Attacks:     []campaign.AttackSpec{attack},
					Mitigations: []string{"none"},
					Seeds:       []uint64{seed, seed + 41},
					SecureAck:   true,
					Locate:      true,
					Recover:     recovery,
				})
			}
		}
	}
	return specs
}

func seedRange(first uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = first + uint64(i)
	}
	return out
}

// campaignWorkload runs one or more campaign grids back to back; every
// point is an operation, checked record by record.
type campaignWorkload struct {
	name  string
	seed  uint64
	specs []campaign.Spec
	data  [][]byte // each spec as JSON, the input set-up parses

	scenarios [][]campaign.Scenario
	platforms []campaign.Scenario // first point of each distinct platform
	probes    []probeConfig       // first point of each distinct configuration
	cycles    int64

	ref   [][]byte     // reference records, all grids in order
	bad   []bool       // reference record fails its checks
	stats []pointStats // reference per-point statistics
}

func newCampaignWorkload(name string, seed uint64, specs []campaign.Spec) (*campaignWorkload, error) {
	w := &campaignWorkload{name: name, seed: seed, specs: specs}
	platforms, configs := map[string]bool{}, map[string]int{}
	for _, s := range specs {
		data, err := json.Marshal(s)
		if err != nil {
			return nil, err
		}
		w.data = append(w.data, data)
		scs := s.Expand()
		w.scenarios = append(w.scenarios, scs)
		for _, sc := range scs {
			cfg, err := sc.Config()
			if err != nil {
				return nil, err
			}
			w.cycles += int64(cfg.Warmup + cfg.Measure)
			// A platform is what a zero-cycle RunInto builds: network,
			// traffic model, attacker placement and trojans.
			plat := sc
			plat.Seed, plat.Mitigation = 0, ""
			if k := scenarioKey(plat); !platforms[k] {
				platforms[k] = true
				w.platforms = append(w.platforms, sc)
			}
			conf := sc
			conf.Seed = 0
			k := scenarioKey(conf)
			if i, ok := configs[k]; ok {
				w.probes[i].weight++
				continue
			}
			configs[k] = len(w.probes)
			w.probes = append(w.probes, probeConfig{cfg: cfg, weight: 1})
		}
	}
	return w, nil
}

func scenarioKey(sc campaign.Scenario) string {
	b, err := json.Marshal(sc)
	if err != nil {
		panic(err) // plain data; cannot fail
	}
	return string(b)
}

func (w *campaignWorkload) setup() (setupCost, error) {
	var c setupCost
	t0 := time.Now()
	for _, data := range w.data {
		s, err := campaign.ParseSpec(data)
		if err != nil {
			return c, err
		}
		e0 := time.Now()
		if err := s.Validate(); err != nil {
			return c, err
		}
		_ = s.Expand()
		c.expand += time.Since(e0)
	}
	for _, sc := range w.platforms {
		cfg, err := sc.Config()
		if err != nil {
			return c, err
		}
		d, err := coldRun(cfg)
		if err != nil {
			return c, err
		}
		c.cold = append(c.cold, d)
	}
	c.total = time.Since(t0)
	return c, nil
}

// outPath is where a workload's grid i writes its records ("ref" for the
// reference run, "out" for the timed passes).
func outPath(workload, kind string, i int) string {
	return filepath.Join(outDir, fmt.Sprintf("%s-%s-%d.jsonl", workload, kind, i))
}

// reference runs every grid once through the benchmark's driver, keeping
// each point's record and counters: every point must run, conserve its
// drops, and at the reference seed match its stored digest.
func (w *campaignWorkload) reference() error {
	w.ref, w.stats = nil, nil
	for i, scs := range w.scenarios {
		stats, err := drive(scs, w.specs[i].Hash(), outPath(w.name, "ref", i), nil)
		if err != nil {
			return err
		}
		w.stats = append(w.stats, stats...)
	}
	var want []string
	if w.seed == refSeed {
		var err error
		if want, err = refDigests(w.name); err != nil {
			return err
		}
		if len(want) != len(w.stats) {
			return fmt.Errorf("%d stored digests for %d records", len(want), len(w.stats))
		}
	}
	w.ref = make([][]byte, len(w.stats))
	w.bad = make([]bool, len(w.stats))
	for i, st := range w.stats {
		w.ref[i] = st.line
		if st.err != nil {
			w.bad[i] = true
			fmt.Fprintf(os.Stderr, "%s: record %d: %v\n", w.name, i, st.err)
		}
		if want != nil && digest(st.line) != want[i] {
			w.bad[i] = true
			fmt.Fprintf(os.Stderr, "%s: record %d differs from its stored digest\n", w.name, i)
		}
	}
	return nil
}

// pass runs every grid at two workers. Untraced, a child process runs
// campaign.Run over each grid (so a point that crashes the program fails
// its operations instead of the benchmark); traced, the benchmark's driver
// runs in this process. Every record must equal the reference's byte for
// byte, and a traced pass must also simulate the reference's counts.
func (w *campaignWorkload) pass(tr *tracer) passResult {
	var r passResult
	var got [][]byte
	if tr == nil {
		// A child that dies mid-grid is followed by one that runs the
		// grids after it.
		for first := 0; first < len(w.specs); {
			ru, err := w.runChild(first)
			if ru != nil {
				r.childCPU += time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
				r.childRSSKiB = max(r.childRSSKiB, ru.Maxrss)
			}
			if err == nil {
				break
			}
			for first < len(w.specs) && w.committed(first) == len(w.scenarios[first]) {
				first++
			}
			fmt.Fprintf(os.Stderr, "%s: campaign.Run over grid %d: %v\n", w.name, first, err)
			first++
		}
		for i, scs := range w.scenarios {
			data, err := os.ReadFile(outPath(w.name, "out", i))
			if err != nil && !errors.Is(err, fs.ErrNotExist) {
				r.err = err
				return r
			}
			r.bytes += int64(len(data))
			// Align each grid's records with its points: a grid cut short
			// leaves nil records, which fail.
			lines := splitLines(data)
			if len(lines) > len(scs) {
				r.failed += len(lines) - len(scs)
				lines = lines[:len(scs)]
			}
			got = append(got, lines...)
			got = append(got, make([][]byte, len(scs)-len(lines))...)
		}
	} else {
		for i, scs := range w.scenarios {
			stats, err := drive(scs, w.specs[i].Hash(), outPath(w.name, "out", i), tr)
			if err != nil {
				r.err = err
				return r
			}
			r.points = append(r.points, stats...)
		}
		for _, p := range r.points {
			r.bytes += int64(len(p.line))
			got = append(got, p.line)
		}
		r.spans = tr.finish()
		if n := compareLines(got, w.ref, nil); n > 0 {
			r.err = fmt.Errorf("%s: traced driver JSONL differs from the reference in %d records", w.name, n)
		}
		for i, p := range r.points {
			if p.pointCounts != w.stats[i].pointCounts {
				r.err = fmt.Errorf("%s: traced point %d simulated different counts than the reference", w.name, i)
				break
			}
		}
	}
	r.attempted = len(w.ref)
	r.failed += compareLines(got, w.ref, w.bad)
	return r
}

// childEnv names the job file of a child process; the benchmark sets it
// only on the children it starts.
const childEnv = "PERFBENCH_CHILD"

// childJob is what a child process runs: campaign.Run over each grid.
type childJob struct {
	Specs []campaign.Spec `json:"specs"`
	Out   []string        `json:"out"`
}

// childPass is the untraced pass's child process: campaign.Run over each
// grid of the job file, nothing else.
func childPass(jobPath string) error {
	data, err := os.ReadFile(jobPath)
	if err != nil {
		return err
	}
	var job childJob
	if err := json.Unmarshal(data, &job); err != nil {
		return fmt.Errorf("%s: %w", jobPath, err)
	}
	for i, s := range job.Specs {
		if _, err := campaign.Run(context.Background(), s, job.Out[i], campaign.Options{Workers: workers}); err != nil {
			return err
		}
	}
	return nil
}

// committed counts the records grid i's last pass wrote.
func (w *campaignWorkload) committed(i int) int {
	data, _ := os.ReadFile(outPath(w.name, "out", i)) // missing: none committed
	return len(splitLines(data))
}

// runChild runs campaign.Run over grids first.. in a child process, waits
// for it and returns its resource usage (nil if it did not start).
func (w *campaignWorkload) runChild(first int) (*syscall.Rusage, error) {
	job := childJob{Specs: w.specs[first:]}
	for i := first; i < len(w.specs); i++ {
		// Each pass starts from no output, so a crashed child leaves only
		// what it committed.
		p := outPath(w.name, "out", i)
		if err := os.Remove(p); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return nil, err
		}
		job.Out = append(job.Out, p)
	}
	data, err := json.Marshal(job)
	if err != nil {
		return nil, err
	}
	jobPath := filepath.Join(outDir, w.name+"-child.json")
	if err := os.WriteFile(jobPath, data, 0o644); err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), childEnv+"="+jobPath)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	err = cmd.Run()
	if cmd.ProcessState == nil {
		return nil, err
	}
	ru, _ := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	return ru, err
}

func (w *campaignWorkload) simCycles() int64 { return w.cycles }

func (w *campaignWorkload) layers(m map[string]float64, traced []passResult, costs []setupCost) error {
	expand := make([]float64, len(costs))
	for i, c := range costs {
		expand[i] = float64(c.expand.Nanoseconds()) / 1e6
	}
	m["campaign.expand_ms"] = median(expand)
	m["core.cold_ms"] = coldMs(costs)

	var encode, idle, nsPerCycle, pointMs []float64
	for _, t := range traced {
		var fill, enc, runInto, busy, wall time.Duration
		var cycles int64
		for _, sp := range t.spans {
			d := time.Duration(sp.dur())
			switch sp.Name {
			case "campaign.run":
				wall += d
			case "campaign.config":
				busy += d
			case "campaign.fill":
				fill += d
				busy += d
			case "campaign.encode":
				enc += d
				busy += d
			case "core.run_into":
				runInto += d
				busy += d
				pointMs = append(pointMs, float64(d.Nanoseconds())/1e6)
			}
		}
		for _, p := range t.points {
			cycles += p.cycles
		}
		n := len(t.points)
		encode = append(encode, float64((fill+enc).Nanoseconds())/1e3/float64(n))
		idle = append(idle, idleFrac(busy, wall, workers))
		nsPerCycle = append(nsPerCycle, float64(runInto.Nanoseconds())/float64(cycles))
	}
	m["campaign.encode_us_per_point"] = median(encode)
	m["campaign.idle_frac"] = median(idle)
	m["campaign.record_bytes"] = float64(traced[0].bytes)
	m["core.point_ms_p50"] = median(pointMs)
	if pct, v, ok := tail(pointMs); ok {
		m["core.point_ms_tail"], m["core.point_ms_tail_pct"] = v, pct
	}
	m["core.point_samples"] = float64(len(pointMs))
	m["core.ns_per_cycle"] = median(nsPerCycle)

	// Counts: deterministic, from the first traced pass (every pass and
	// the reference agree on them).
	var inflight float64
	var samples int
	for _, p := range traced[0].points {
		m["noc.cycles"] += float64(p.cycles)
		m["noc.delivered_flits"] += float64(p.final.DeliveredFlits)
		m["noc.retransmissions"] += float64(p.final.Retransmissions)
		m["noc.dropped_flits"] += float64(p.final.DroppedFlits)
		m["detect.windows"] += float64(p.windows)
		m["locate.rank_calls"] += float64(p.ranks)
		m["reroute.reconfigs"] += float64(p.reconfigs)
		if p.rerouted {
			m["reroute.applies"]++
		}
		inflight += p.inflight
		samples += p.samples
	}
	if samples > 0 {
		m["noc.flits_in_flight_mean"] = inflight / float64(samples)
	}

	var cfgs []core.ExperimentConfig
	for _, p := range w.probes {
		cfgs = append(cfgs, p.cfg)
	}
	ms, err := modelBuildMs(cfgs)
	if err != nil {
		return err
	}
	m["traffic.model_build_ms"] = ms
	probeLayers(m, w.probes, m["core.ns_per_cycle"])
	return nil
}

// pointStats is what the benchmark keeps of one point: its record and the
// counts from its core.Results.
type pointStats struct {
	pointCounts
	line []byte // the JSONL record; nil when the point failed
	err  error  // the point failed, or its counters fail conservation
}

// pointCounts are a point's simulated counts, deterministic per point.
type pointCounts struct {
	cycles    int64
	final     noc.Counters
	samples   int
	inflight  float64 // flits buffered in VCs and retransmission buffers, summed over samples
	windows   int     // secure-ack windows closed
	ranks     int     // locate.Rank calls
	rerouted  bool    // the rerouting baseline reconfigured
	reconfigs int     // links disabled by conviction-driven recovery
}

func statsOf(cfg core.ExperimentConfig, res *core.Results) pointStats {
	c := pointCounts{
		cycles:    int64(cfg.Warmup + cfg.Measure),
		final:     res.Final,
		samples:   len(res.Samples),
		rerouted:  res.ReroutedAt > 0,
		reconfigs: len(res.RecoveredLinks),
	}
	for _, s := range res.Samples {
		c.inflight += float64(s.InputFlits + s.OutputFlits)
	}
	if cfg.SecureAck {
		c.windows = len(res.Samples)
	}
	if cfg.Locate {
		c.ranks = len(res.SuspectTrace) + 1 // per-sample ranking plus the final one
	}
	return pointStats{pointCounts: c, err: conserved(res.Final)}
}
