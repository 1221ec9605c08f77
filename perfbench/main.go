// Command perfbench is the repository benchmark. It drives the simulator
// through its public entry points (exp.RunAll, campaign.Run,
// core.Runner.RunInto), verifies every output, and prints one JSON result
// line. Run it from the repository root through run.sh:
//
//	bash perfbench/run.sh --workload sweep --seed 1 --seconds 40 --trace 0
//
// With --trace 0 it reports the end-to-end metrics (host time, measured
// untraced); with --trace 1 it alternates untraced and traced passes and
// reports the per-layer metrics. README.md lists the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"tasp/internal/campaign"
)

// workers is the load: one process running each workload on two worker
// goroutines, the CPU count of the box the workloads were sized on.
const workers = 2

// Cold set-ups are timed in batches, one before the reference run and one
// before every timed pass, so that setup_s, their median, samples the
// host over the whole run. A batch is at least setupBatch set-ups and
// lasts at least setupBatchTime.
const (
	setupBatch     = 5
	setupBatchTime = 100 * time.Millisecond
)

// outDir holds everything a run writes: campaign JSONL files, spans and
// the build (run.sh puts the binary and Go build cache there too).
const outDir = ".bench_build"

type metricDef struct{ name, unit string }

// endToEnd are the metrics a --trace 0 run reports. sim_cycles_per_s and
// fail_frac are printed beside them but kept out of the JSON metrics:
// paper-eval's cycle count is not observable from outside exp, and
// fail_frac is the result line's failed/attempted.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the metrics a --trace 1 run reports, every one on every
// workload; a layer the workload does not reach reports 0.
var perLayer = []metricDef{
	{"campaign.expand_ms", "ms"},
	{"campaign.encode_us_per_point", "us"},
	{"campaign.idle_frac", "ratio"},
	{"campaign.record_bytes", "bytes"},
	{"core.point_ms_p50", "ms"},
	{"core.point_ms_tail", "ms"},
	{"core.point_ms_tail_pct", "%"},
	{"core.point_samples", "count"},
	{"core.cold_ms", "ms"},
	{"core.ns_per_cycle", "ns"},
	{"core.overhead_ns_per_cycle", "ns"},
	{"core.securewire_ns_per_flit", "ns"},
	{"noc.step_ns_per_cycle.mesh4", "ns"},
	{"noc.step_ns_per_cycle.torus4", "ns"},
	{"noc.step_ns_per_cycle.ring4", "ns"},
	{"noc.step_ns_per_cycle.mesh8", "ns"},
	{"noc.step_ns_per_cycle.torus8", "ns"},
	{"noc.step_ns_per_flit", "ns"},
	{"noc.cycles", "count"},
	{"noc.delivered_flits", "count"},
	{"noc.retransmissions", "count"},
	{"noc.dropped_flits", "count"},
	{"noc.flits_in_flight_mean", "flits"},
	{"traffic.tick_ns_per_cycle", "ns"},
	{"traffic.model_build_ms", "ms"},
	{"detect.window_us", "us"},
	{"detect.windows", "count"},
	{"locate.rank_us", "us"},
	{"locate.rank_calls", "count"},
	{"reroute.apply_ms", "ms"},
	{"reroute.applies", "count"},
	{"trace.overhead_s", "s"},
}

// extraLayers are the per-layer metrics of layers only the workloads kept
// out of BENCHMARK.json reach: exp on paper-eval, reroute.ApplySafe on
// defend-recover. A traced run of such a workload reports them after
// perLayer.
var extraLayers = map[string][]metricDef{
	"paper-eval": {
		{"exp.sum_s", "s"},
		{"exp.longest_s", "s"},
		{"exp.idle_frac", "ratio"},
		{"exp.fig10_s", "s"},
		{"exp.ablations_s", "s"},
		{"exp.saturation_s", "s"},
	},
	"defend-recover": {
		{"reroute.apply_safe_ms", "ms"},
		{"reroute.reconfigs", "count"},
	},
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// workload is one benchmark input set, generated from the seed.
type workload interface {
	// setup performs one cold set-up: everything before the first
	// simulated cycle.
	setup() (setupCost, error)
	// reference computes, untimed, what every pass's output is checked
	// against.
	reference() error
	// pass runs the workload once and verifies its outputs. A nil tracer
	// runs it through the program's own entry point; a tracer runs the
	// benchmark's traced driver over the same calls.
	pass(tr *tracer) passResult
	// simCycles is the simulated cycles in one pass (0 = not observable).
	simCycles() int64
	// layers fills the per-layer metrics from the traced passes and the
	// set-ups.
	layers(m map[string]float64, traced []passResult, costs []setupCost) error
}

type setupCost struct {
	total  time.Duration
	expand time.Duration   // spec validate + expand (campaign workloads)
	cold   []time.Duration // one zero-cycle RunInto per distinct platform
}

type passResult struct {
	wall, cpu         time.Duration
	attempted, failed int
	// err is a failure of the benchmark's own checks (not of an
	// operation): the traced output differed from the untraced one, or a
	// pass could not be verified at all. It makes the run incorrect.
	err    error
	spans  []span       // traced passes only
	points []pointStats // traced campaign passes only
	bytes  int64        // JSONL bytes written
	// The child process that ran an untraced campaign pass.
	childCPU    time.Duration
	childRSSKiB int64
}

func main() {
	if job := os.Getenv(childEnv); job != "" {
		if err := childPass(job); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		return
	}
	name := flag.String("workload", "", "sweep, defend, defend-recover or paper-eval")
	seed := flag.Uint64("seed", 1, "workload seed; 1 reproduces the stored reference digests")
	seconds := flag.Int("seconds", 20, "how long the timed passes run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	commit := flag.String("commit", "none", "commit of the measured tree, for the machine record")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *commit); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// campaignSpecs returns the grids of a campaign workload.
func campaignSpecs(name string, seed uint64) ([]campaign.Spec, bool) {
	switch name {
	case "sweep":
		return []campaign.Spec{sweepSpec(seed)}, true
	case "defend":
		return defendSpecs(seed, false), true
	case "defend-recover":
		return defendSpecs(seed, true), true
	}
	return nil, false
}

func newWorkload(name string, seed uint64) (workload, error) {
	if name == "paper-eval" {
		return newPaperEval(seed), nil
	}
	if specs, ok := campaignSpecs(name, seed); ok {
		return newCampaignWorkload(name, seed, specs)
	}
	return nil, fmt.Errorf("unknown workload %q (want sweep, defend, defend-recover or paper-eval)", name)
}

func run(name string, seed uint64, seconds int, traced bool, commit string) error {
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", seconds)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	w, err := newWorkload(name, seed)
	if err != nil {
		return err
	}
	var costs []setupCost
	setUp := func() error {
		t0 := time.Now()
		for n := 0; n < setupBatch || time.Since(t0) < setupBatchTime; n++ {
			runtime.GC()
			c, err := w.setup()
			if err != nil {
				return fmt.Errorf("setup: %w", err)
			}
			costs = append(costs, c)
		}
		return nil
	}
	if err := setUp(); err != nil {
		return err
	}
	if err := w.reference(); err != nil {
		return fmt.Errorf("reference: %w", err)
	}

	// A traced run alternates which of each untraced/traced pair goes
	// first, so warm-up and drift do not land on one side.
	var untraced, tracedPasses []passResult
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	for i := 0; len(untraced) == 0 || time.Now().Before(deadline); i++ {
		if err := setUp(); err != nil {
			return err
		}
		if traced && i%2 == 1 {
			tracedPasses = append(tracedPasses, timed(func() passResult { return w.pass(newTracer()) }))
		}
		untraced = append(untraced, timed(func() passResult { return w.pass(nil) }))
		if traced && i%2 == 0 {
			tracedPasses = append(tracedPasses, timed(func() passResult { return w.pass(newTracer()) }))
		}
	}
	// Peak memory is the program's: the least over passes of the peak of
	// the child that ran campaign.Run (GC pacing adds a varying margin of
	// up to ~15% on top in some passes), or this process's peak when the
	// workload runs in it.
	var rssKiB int64
	for i, p := range untraced {
		if p.childRSSKiB > 0 && (rssKiB == 0 || p.childRSSKiB < rssKiB) {
			rssKiB = p.childRSSKiB
		}
		fmt.Fprintf(os.Stderr, "pass %d: wall %.3fs cpu %.3fs child rss %d KiB\n", i, p.wall.Seconds(), p.cpu.Seconds(), p.childRSSKiB)
	}
	if rssKiB == 0 {
		rssKiB = peakRSSKiB()
	}

	res := resultLine{Correct: true, Metrics: map[string]value{}}
	for _, p := range append(untraced, tracedPasses...) {
		res.Attempted += p.attempted
		res.Failed += p.failed
		if p.err != nil {
			res.Correct = false
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", p.err)
		}
	}
	if res.Attempted == 0 {
		return fmt.Errorf("no operation attempted")
	}

	walls, cpus := durations(untraced, func(p passResult) time.Duration { return p.wall }),
		durations(untraced, func(p passResult) time.Duration { return p.cpu })
	setupS := make([]float64, len(costs))
	for i, c := range costs {
		setupS[i] = c.total.Seconds()
	}
	wall := median(walls)
	e2e := map[string]float64{
		"wall_s":      wall,
		"cpu_s":       median(cpus),
		"setup_s":     median(setupS),
		"peak_rss_mb": float64(rssKiB) / 1024,
	}

	mach := machineRecord(commit)
	fmt.Printf("machine %s\n", mach)
	fmt.Printf("workload %s seed %d: %d untraced passes, %d traced passes, %d set-ups, %d workers\n",
		name, seed, len(untraced), len(tracedPasses), len(costs), workers)
	for _, d := range endToEnd {
		fmt.Printf("  %-34s %14.6f %s\n", d.name, e2e[d.name], d.unit)
	}
	if c := w.simCycles(); c > 0 {
		fmt.Printf("  %-34s %14.1f %s\n", "sim_cycles_per_s", float64(c)/wall, "cycles/s")
	} else {
		fmt.Printf("  %-34s %14s %s\n", "sim_cycles_per_s", "n/a", "cycles/s")
	}
	fmt.Printf("  %-34s %14.6f %s (%d of %d operations)\n", "fail_frac",
		float64(res.Failed)/float64(res.Attempted), "ratio", res.Failed, res.Attempted)

	if !traced {
		for _, d := range endToEnd {
			res.Metrics[d.name] = value{e2e[d.name], d.unit}
		}
	} else {
		lm := map[string]float64{}
		if err := w.layers(lm, tracedPasses, costs); err != nil {
			return fmt.Errorf("per-layer metrics: %w", err)
		}
		overhead := make([]float64, len(tracedPasses))
		for i := range overhead {
			overhead[i] = (tracedPasses[i].wall - untraced[i].wall).Seconds()
		}
		lm["trace.overhead_s"] = median(overhead)
		for _, d := range append(perLayer[:len(perLayer):len(perLayer)], extraLayers[name]...) {
			v := lm[d.name]
			fmt.Printf("  %-34s %14.6f %s\n", d.name, v, d.unit)
			res.Metrics[d.name] = value{v, d.unit}
		}
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
		if err := writeSpans(path, mach, tracedPasses); err != nil {
			return err
		}
		fmt.Printf("spans written to %s\n", path)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// timed runs one pass with the heap collected beforehand, recording its
// wall time and the user+sys CPU of this process and its child over it.
func timed(pass func() passResult) passResult {
	runtime.GC()
	c0, t0 := cpuTime(), time.Now()
	p := pass()
	p.wall, p.cpu = time.Since(t0), cpuTime()-c0+p.childCPU
	return p
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSKiB is this process's peak resident set (Linux reports KiB).
func peakRSSKiB() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss
}

func durations(ps []passResult, f func(passResult) time.Duration) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = f(p).Seconds()
	}
	return out
}
