package analysis_test

import (
	"os"
	"path/filepath"
	"testing"

	"tasp/internal/analysis"
)

// TestSeededRegression is the acceptance check for the whole suite: plant
// the canonical contract violations — a map range over router state, a
// math/rand import, a direct scheduler-state write and a write to another
// package's global (the bug class of the shared L-Ob escalation order,
// whose in-module form the globalmut fixture covers) — in a
// noc-shaped package and prove the shipped internal/noc analyzer
// configuration (SuiteFor) turns each into a finding. If any analyzer
// regressed to silence, introducing this exact code into internal/noc
// would sail through `make lint` and CI.
func TestSeededRegression(t *testing.T) {
	dir := t.TempDir()
	src := `package noc

import (
	"math/rand"
	"os"
)

type Router struct {
	occ uint64
}

type Network struct {
	routers map[int]*Router
}

func (n *Network) Step() {
	for id, r := range n.routers {
		r.occ |= 1 << uint(id%64)
	}
	_ = rand.Int()
	os.Args = os.Args[:1]
}
`
	if err := os.WriteFile(filepath.Join(dir, "noc.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := analysis.LoadFixtureDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.RunAnalyzers(pkg, analysis.SuiteFor("tasp/internal/noc"))
	if err != nil {
		t.Fatal(err)
	}
	byAnalyzer := map[string]int{}
	for _, d := range diags {
		byAnalyzer[d.Analyzer]++
	}
	if byAnalyzer["detrange"] == 0 {
		t.Errorf("map range over router state not flagged by detrange; got %v", diags)
	}
	if byAnalyzer["detsource"] == 0 {
		t.Errorf("math/rand import not flagged by detsource; got %v", diags)
	}
	if byAnalyzer["telemetrysafe"] == 0 {
		t.Errorf("direct Router.occ mutation outside sched.go not flagged by telemetrysafe; got %v", diags)
	}
	if byAnalyzer["globalmut"] == 0 {
		t.Errorf("write to the os.Args global not flagged by globalmut; got %v", diags)
	}
}

// TestSeededRegressionCleanBaseline is the control: the same shape with the
// violations removed produces zero findings, so the regression test above
// fails for the right reason.
func TestSeededRegressionCleanBaseline(t *testing.T) {
	dir := t.TempDir()
	src := `package noc

type Router struct {
	occ uint64
}

// markOccupied lives in sched.go, the sanctioned mutation site.
func (r *Router) markOccupied(idx uint) { r.occ |= 1 << idx }

type Network struct {
	routers []*Router
}

func (n *Network) Step() {
	for id, r := range n.routers {
		r.markOccupied(uint(id % 64))
	}
}
`
	if err := os.WriteFile(filepath.Join(dir, "sched.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := analysis.LoadFixtureDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.RunAnalyzers(pkg, analysis.SuiteFor("tasp/internal/noc"))
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Errorf("clean baseline produced findings: %v", diags)
	}
}

// TestSeededRegressionCampaign plants the campaign engine's canonical
// contract violations — a per-point allocation inside the worker loop and a
// writer-cursor mutation outside writer.go — in a campaign-shaped package
// and proves the shipped internal/campaign configuration flags both. The
// worker loop's 0 allocs/point contract is what makes thousand-point sweeps
// run at arena speed; a make() in the loop would silently cost a heap
// allocation per grid point.
func TestSeededRegressionCampaign(t *testing.T) {
	dir := t.TempDir()
	src := `package campaign

type Record struct {
	line []byte
}

type writer struct {
	next    int
	written int
}

func worker(recs []Record, results chan<- []byte) {
	for i := range recs {
		buf := make([]byte, 0, 256)
		buf = append(buf, recs[i].line...)
		results <- buf
	}
}

// commitDirect lives outside writer.go, so advancing the cursor here must
// be flagged even though it compiles fine.
func (w *writer) commitDirect() {
	w.next++
	w.written = w.next
}
`
	if err := os.WriteFile(filepath.Join(dir, "run.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := analysis.LoadFixtureDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.RunAnalyzers(pkg, analysis.SuiteFor("tasp/internal/campaign"))
	if err != nil {
		t.Fatal(err)
	}
	byAnalyzer := map[string]int{}
	for _, d := range diags {
		byAnalyzer[d.Analyzer]++
	}
	if byAnalyzer["hotalloc"] == 0 {
		t.Errorf("per-point allocation in the worker loop not flagged by hotalloc; got %v", diags)
	}
	if byAnalyzer["telemetrysafe"] == 0 {
		t.Errorf("writer cursor mutation outside writer.go not flagged by telemetrysafe; got %v", diags)
	}
}

func TestSuiteFor(t *testing.T) {
	if got := analysis.SuiteFor("tasp/internal/noc"); len(got) != 5 {
		t.Errorf("internal/noc suite has %d analyzers, want 5 (detrange, detsource, globalmut, hotalloc, telemetrysafe)", len(got))
	}
	if got := analysis.SuiteFor("tasp/internal/campaign"); len(got) != 5 {
		t.Errorf("internal/campaign suite has %d analyzers, want 5 (detrange, detsource, globalmut, hotalloc, telemetrysafe)", len(got))
	}
	if got := analysis.SuiteFor("tasp/internal/exp"); len(got) != 3 {
		t.Errorf("non-noc sim package suite has %d analyzers, want 3 (detrange, detsource, globalmut)", len(got))
	}
	if got := analysis.SuiteFor("fmt"); got != nil {
		t.Errorf("non-module package got a suite: %v", got)
	}
}

// TestLoadModulePackage smoke-tests the go list -export loader against a
// real module package (the smallest one), end to end through type checking.
func TestLoadModulePackage(t *testing.T) {
	pkgs, err := analysis.Load("../..", "./internal/xrand")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	p := pkgs[0]
	if p.ImportPath != "tasp/internal/xrand" {
		t.Errorf("import path %q", p.ImportPath)
	}
	if p.Types == nil || p.TypesInfo == nil || len(p.Syntax) == 0 {
		t.Error("package loaded without types or syntax")
	}
}
