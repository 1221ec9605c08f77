package campaign

import (
	"testing"

	"tasp/internal/core"
)

// pointLoop is the worker's per-point body without the grouping or the
// channel plumbing: lower the scenario, run it on the reused arena, fill,
// label and encode the record into a recycled buffer. Walking a grid with
// it simulates every point, which makes it the point-by-point reference
// for campaign.Run's output.
type pointLoop struct {
	scenarios []Scenario
	runner    *core.Runner
	res       *core.Results
	rec       Record
	buf       []byte
	i         int
}

func (p *pointLoop) step(tb testing.TB) {
	i := p.i % len(p.scenarios)
	p.i++
	sc := p.scenarios[i]
	cfg, err := sc.Config()
	if err != nil {
		tb.Fatal(err)
	}
	if err := p.runner.RunInto(cfg, p.res); err != nil {
		tb.Fatal(err)
	}
	p.rec.Fill(p.res)
	p.rec.label(i, sc, &cfg)
	p.buf = p.rec.AppendJSONL(p.buf[:0])
}

// allocSpec exercises the paper's headline arms (clean, attacked,
// defended) on one platform with rotating seeds — the shape of a real
// sweep's inner loop.
func allocSpec() Spec {
	return Spec{
		Benchmarks:  []string{"blackscholes"},
		Attacks:     []AttackSpec{{Kind: "none"}, {Kind: "dest"}},
		Mitigations: []string{"none", "s2s-lob"},
		SeedCount:   8,
		Warmup:      200,
		Measure:     200,
	}
}

// TestCampaignPointSteadyStateAllocs pins the campaign engine's per-point
// allocation contract end to end: simulate + fill + encode allocates
// nothing once the worker's arena and buffers have warmed up.
func TestCampaignPointSteadyStateAllocs(t *testing.T) {
	p := &pointLoop{
		scenarios: allocSpec().Expand(),
		runner:    core.NewRunner(),
		res:       &core.Results{},
	}
	// Warm past the recyclers' high-water marks (see the core runner's
	// steady-state test for why early points still grow freelists).
	for i := 0; i < 2*len(p.scenarios); i++ {
		p.step(t)
	}
	if avg := testing.AllocsPerRun(10, func() { p.step(t) }); avg > 0.1 {
		t.Errorf("warmed campaign point allocates %.2f times per point; budget is 0", avg)
	}
}

// BenchmarkCampaignPoint measures the warm per-point cost of a campaign
// worker (simulate 400 cycles + record encode). Wired into the CI
// allocation gate: the b.N loop must report 0 allocs/op.
func BenchmarkCampaignPoint(b *testing.B) {
	p := &pointLoop{
		scenarios: allocSpec().Expand(),
		runner:    core.NewRunner(),
		res:       &core.Results{},
	}
	for i := 0; i < 2*len(p.scenarios); i++ {
		p.step(b)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.step(b)
	}
}
