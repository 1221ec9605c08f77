package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tasp/internal/campaign"
	"tasp/internal/core"
	"tasp/internal/exp"
	"tasp/internal/noc"
	"tasp/internal/tasp"
)

var update = flag.Bool("update", false, "rewrite ref/*.txt from the current program at the reference seed")

// TestMain lets the test binary serve as the untraced pass's child process.
func TestMain(m *testing.M) {
	if job := os.Getenv(childEnv); job != "" {
		if err := childPass(job); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // unsorted on purpose
		}
		return out
	}
	for _, c := range []struct {
		n    int
		pct  float64
		v    float64
		none bool
	}{
		{n: 19, none: true},         // p50 leaves 9 beyond
		{n: 20, pct: 50, v: 10},     // rank 10, 10 beyond
		{n: 50, pct: 75, v: 38},     // p90 would leave 5
		{n: 100, pct: 90, v: 90},    // p95 would leave 5
		{n: 1620, pct: 99, v: 1604}, // p99.9 would leave 1
		{n: 10000, pct: 99.9, v: 9990},
	} {
		pct, v, ok := tail(xs(c.n))
		if ok == c.none || pct != c.pct || v != c.v {
			t.Errorf("n=%d: got p%v=%v ok=%v, want p%v=%v ok=%v", c.n, pct, v, ok, c.pct, c.v, !c.none)
		}
	}
}

func TestSelfTimeSubtractsChildCoverageOnce(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 40},
		{ID: 2, Parent: 0, Start: 30, End: 50},  // overlaps 1: covered 10..50
		{ID: 3, Parent: 0, Start: 90, End: 120}, // clipped to the parent's end
		{ID: 4, Parent: 1, Start: 15, End: 20},  // grandchild: only 1's self shrinks
	}
	want := []int64{100 - 40 - 10, 30 - 5, 20, 30, 5}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: self %d, want %d", i, got[i], want[i])
		}
	}
}

func TestIdleFrac(t *testing.T) {
	if got := idleFrac(3*time.Second, 2*time.Second, 2); got != 0.25 {
		t.Errorf("idleFrac = %v, want 0.25", got)
	}
	if got := idleFrac(4*time.Second, 2*time.Second, 2); got != 0 {
		t.Errorf("fully busy idleFrac = %v, want 0", got)
	}
}

// The paper-eval reference is the golden file split per section.
func TestGoldenSplitsIntoReferenceSections(t *testing.T) {
	data, err := os.ReadFile("../testdata/golden/experiments-all-mesh.txt")
	if err != nil {
		t.Fatal(err)
	}
	secs, err := splitSections(string(data))
	if err != nil {
		t.Fatal(err)
	}
	var joined strings.Builder
	var lines []string
	for _, s := range secs {
		joined.WriteString(s.text)
		lines = append(lines, s.id+" "+digest([]byte(s.text)))
	}
	if joined.String() != string(data) {
		t.Fatal("sections do not join back into the golden file")
	}
	if ids := strings.Join(idsOf(secs), ","); !strings.HasPrefix(ids, "fig1,fig2,") || !strings.HasSuffix(ids, ",saturation") {
		t.Errorf("section ids %s", ids)
	}
	if *update {
		writeRef(t, "paper-eval", lines)
	}
	want, err := refDigests("paper-eval")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(want, "\n") != strings.Join(lines, "\n") {
		t.Error("ref/paper-eval.txt does not hold the golden file's section digests (run with -update)")
	}
}

func idsOf(secs []section) []string {
	var ids []string
	for _, s := range secs {
		ids = append(ids, s.id)
	}
	return ids
}

func writeRef(t *testing.T, name string, lines []string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join("ref", name+".txt"), []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// The campaign references are campaign.Run's records at the reference seed.
func TestCampaignReferenceDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the sweep and defend grids")
	}
	for _, c := range []struct {
		name  string
		specs []campaign.Spec
	}{
		{"defend", defendSpecs(refSeed, false)},
		{"defend-recover", defendSpecs(refSeed, true)},
		{"sweep", []campaign.Spec{sweepSpec(refSeed)}},
	} {
		var lines []string
		for _, s := range c.specs {
			path := filepath.Join(t.TempDir(), "out.jsonl")
			if _, err := campaign.Run(context.Background(), s, path, campaign.Options{Workers: workers}); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, l := range splitLines(data) {
				lines = append(lines, digest(l))
			}
		}
		if *update {
			writeRef(t, c.name, lines)
		}
		want, err := refDigests(c.name)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Join(want, "\n") != strings.Join(lines, "\n") {
			t.Errorf("ref/%s.txt does not hold campaign.Run's record digests (run with -update)", c.name)
		}
	}
}

// smallGrid exercises the trojan families, the rerouting baseline and the
// defence stack in a handful of short points.
func smallGrid() campaign.Spec {
	return campaign.Spec{
		Topologies: []string{"mesh", "ring"},
		Attacks: []campaign.AttackSpec{
			{Kind: "none"}, {Kind: "dest"}, {Kind: "dest", Mode: "drop"}, {Kind: "dest", Mode: "collude"},
		},
		Mitigations: []string{"none", "rerouting"},
		Seeds:       []uint64{3, 4},
		Warmup:      200,
		Measure:     400,
		SecureAck:   true,
		Locate:      true,
		Recover:     true,
	}
}

func inTempDir(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		t.Fatal(err)
	}
}

func TestTracedDriverMatchesCampaignRun(t *testing.T) {
	inTempDir(t)
	spec := smallGrid()
	if _, err := campaign.Run(context.Background(), spec, "want.jsonl", campaign.Options{Workers: workers}); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("want.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	stats, err := drive(spec.Expand(), spec.Hash(), "got.jsonl", tr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("got.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatal("traced driver JSONL differs from campaign.Run's")
	}
	for i, s := range stats {
		if s.err != nil {
			t.Errorf("point %d: %v", i, s.err)
		}
	}
	spans := tr.finish()
	count := map[string]int{}
	for _, s := range spans {
		count[s.Name]++
		if s.End < s.Start {
			t.Fatalf("span %s ends before it starts", s.Name)
		}
	}
	n := len(spec.Expand())
	for _, name := range []string{"campaign.point", "campaign.config", "core.run_into", "campaign.fill", "campaign.encode", "campaign.commit"} {
		if count[name] != n {
			t.Errorf("%d %s spans for %d points", count[name], name, n)
		}
	}
}

// A one-byte change in a record the program writes shows up as exactly one
// failed operation.
func TestPlantedByteChangeFailsOneOperation(t *testing.T) {
	inTempDir(t)
	w, err := newCampaignWorkload("planted", 7, []campaign.Spec{smallGrid()})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.reference(); err != nil {
		t.Fatal(err)
	}
	if p := w.pass(nil); p.err != nil || p.failed != 0 || p.attempted != len(w.ref) {
		t.Fatalf("clean pass: %+v", p)
	}
	// Plant the change on the reference side: the program's next output
	// now differs from it in one byte of one record.
	k := len(w.ref) / 2
	w.ref[k] = append([]byte(nil), w.ref[k]...)
	w.ref[k][len(w.ref[k])/2] ^= 1
	if p := w.pass(nil); p.failed != 1 {
		t.Fatalf("planted change: %d failed operations, want 1", p.failed)
	}
	if p := w.pass(newTracer()); p.failed != 1 || p.err == nil {
		t.Fatalf("planted change, traced: %d failed, err %v; want 1 failed and a check error", p.failed, p.err)
	}
}

func TestPlantedSectionChangeFailsOneExperiment(t *testing.T) {
	table := func(cell string) func(uint64) ([]exp.Table, error) {
		return func(uint64) ([]exp.Table, error) {
			return []exp.Table{{Title: "t", Columns: []string{"c"}, Rows: [][]string{{cell}}}}, nil
		}
	}
	p := newPaperEval(7)
	p.reg = []exp.Experiment{{ID: "a", Run: table("x")}, {ID: "b", Run: table("y")}, {ID: "c", Run: table("z")}}
	if err := p.reference(); err != nil {
		t.Fatal(err)
	}
	if r := p.pass(nil); r.failed != 0 || r.attempted != 3 {
		t.Fatalf("clean pass: %+v", r)
	}
	p.ref[1] = strings.Replace(p.ref[1], "y", "w", 1)
	if r := p.pass(newTracer()); r.failed != 1 {
		t.Fatalf("planted change: %d failed experiments, want 1", r.failed)
	}

	// An experiment that panics fails alone; the pass completes.
	p.reg[2].Run = func(uint64) ([]exp.Table, error) { panic("boom") }
	if r := p.pass(nil); r.failed != 2 || r.attempted != 3 {
		t.Fatalf("panicking experiment: %d of %d failed, want 2 of 3", r.failed, r.attempted)
	}
}

// A point the program cannot run fails as an operation: the reference
// marks it, and the untraced pass's child campaign.Run stops at it, losing
// only its grid's uncommitted records; the next child runs the grids after.
func TestFailingPointIsAFailedOperation(t *testing.T) {
	inTempDir(t)
	broken, fine := smallGrid(), smallGrid()
	broken.Topologies, broken.Benchmarks = []string{"mesh"}, []string{"no-such-trace"}
	fine.Topologies = []string{"ring"}
	w, err := newCampaignWorkload("failing", 7, []campaign.Spec{broken, fine})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.reference(); err != nil {
		t.Fatal(err)
	}
	nBroken := len(w.scenarios[0])
	for i, b := range w.bad {
		if b != (i < nBroken) {
			t.Fatalf("reference: record %d bad=%v", i, b)
		}
	}
	for _, tr := range []*tracer{nil, newTracer()} {
		p := w.pass(tr)
		if p.err != nil || p.attempted != len(w.ref) || p.failed != nBroken {
			t.Fatalf("traced=%v: %d of %d failed, err %v; want the %d broken points and no check error", tr != nil, p.failed, p.attempted, p.err, nBroken)
		}
	}
}

func TestConserved(t *testing.T) {
	ok := noc.Counters{InjectedFlits: 10, DeliveredFlits: 7, InjectedPackets: 2, DeliveredPackets: 1,
		DroppedFlits: 3, DroppedRetrans: 1, DroppedInFlight: 1, DroppedOrphan: 1}
	if err := conserved(ok); err != nil {
		t.Fatal(err)
	}
	leak := ok
	leak.DroppedFlits++
	if conserved(leak) == nil {
		t.Error("unattributed drop accepted")
	}
	over := ok
	over.DeliveredFlits = 11
	if conserved(over) == nil {
		t.Error("delivered > injected accepted")
	}
}

// The probe replays a point exactly: same final counters as RunInto.
func TestProbeReplaysRunInto(t *testing.T) {
	var cfgs []core.ExperimentConfig
	for _, sc := range smallGrid().Expand() {
		if sc.Seed != 3 {
			continue
		}
		cfg, err := sc.Config()
		if err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, cfg)
	}
	for _, mode := range []tasp.Kind{tasp.KindMisroute, tasp.KindThrottle} {
		cfg := core.DefaultExperiment()
		cfg.Warmup, cfg.Measure = 300, 600
		cfg.Attack.Kind = mode
		cfg.SecureAck, cfg.Locate, cfg.RecoverOnConvict = true, true, true
		cfgs = append(cfgs, cfg)
	}
	s2s := core.DefaultExperiment()
	s2s.Warmup, s2s.Measure, s2s.Mitigation = 300, 600, core.S2SLOb
	cfgs = append(cfgs, s2s)
	for i, cfg := range cfgs {
		res, err := core.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, timeWires := range []bool{false, true} {
			c, err := probe(cfg, timeWires)
			if err != nil {
				t.Fatal(err)
			}
			if c.final != res.Final {
				t.Errorf("config %d (timeWires %v): probe counters %+v, RunInto %+v", i, timeWires, c.final, res.Final)
			}
		}
	}
}

// BENCHMARK.json declares exactly the metrics the program reports.
func TestBenchmarkJSONListsTheReportedMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics declared, %d reported", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: declared %s (%s), reported %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
