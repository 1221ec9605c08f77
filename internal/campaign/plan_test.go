package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"tasp/internal/core"
)

// groupSpec crosses a fault-free arm with every mitigation the plan can
// merge, plus "" beside "none" (both lower to no mitigation), and an
// attacked arm where "" and "none" merge, s2s-lob forks at the kill switch
// and rerouting, whose reconfiguration falls after the last cycle, merges.
func groupSpec() Spec {
	spec := testSpec()
	spec.Mitigations = []string{"none", "s2s-lob", "", "rerouting"}
	return spec
}

// forkSpec is the paper's none/s2s-lob/rerouting arms crossed with a
// fault-free and an attacked arm, measured long enough that the rerouting
// baseline reconfigures (warm-up 150 + detect delay 200 < 400 cycles), so
// both mitigated arms fork from the attacked trunk.
func forkSpec() Spec {
	return Spec{
		Topologies:  []string{"mesh", "ring"},
		Benchmarks:  []string{"blackscholes"},
		Attacks:     []AttackSpec{{Kind: "none"}, {Kind: "dest"}},
		Mitigations: []string{"none", "s2s-lob", "rerouting"},
		Seeds:       []uint64{1, 2},
		Warmup:      150,
		Measure:     250,
	}
}

// pointByPoint is the reference output: every point simulated on its own
// through the worker's per-point body, records concatenated in grid order.
func pointByPoint(t *testing.T, spec Spec) []byte {
	t.Helper()
	p := &pointLoop{scenarios: spec.Expand(), runner: core.NewRunner(), res: &core.Results{}}
	var out []byte
	for range p.scenarios {
		p.step(t)
		out = append(out, p.buf...)
	}
	return out
}

// runs counts a plan's simulations: one per recorded trunk and one per
// forked arm.
func runs(p plan) int {
	n := 0
	for _, steps := range p.steps {
		for _, st := range steps {
			if g := st.group; g != nil {
				n += len(g.arms)
				if g.trunkSlot >= 0 {
					n++
				}
			}
		}
	}
	return n
}

// forked counts a plan's forked arms.
func forked(p plan) int {
	n := 0
	for _, steps := range p.steps {
		for _, st := range steps {
			if st.group != nil {
				n += len(st.group.arms)
			}
		}
	}
	return n
}

// TestRunMatchesPointByPoint checks that sharing simulations and their
// prefixes changes no byte: campaign.Run's output equals simulating every
// point separately, at any worker count.
func TestRunMatchesPointByPoint(t *testing.T) {
	reversed := forkSpec() // arms listed against fork order
	reversed.Mitigations = []string{"rerouting", "s2s-lob", "none"}
	for _, spec := range []Spec{groupSpec(), forkSpec(), reversed} {
		p := newPlan(spec.Expand(), 0, 1)
		if n := runs(p); n >= spec.Size() || forked(p) == 0 {
			t.Fatalf("the spec plans %d runs (%d forked) for %d points: nothing is shared, so the test proves nothing", n, forked(p), spec.Size())
		}
		ref := pointByPoint(t, spec)
		for _, workers := range []int{1, 3} {
			if got := runToBytes(t, spec, Options{Workers: workers}); !bytes.Equal(got, ref) {
				t.Errorf("%v workers=%d: output differs from the point-by-point reference", spec.Mitigations, workers)
			}
		}
	}
	if got := forked(newPlan(forkSpec().Expand(), 0, 1)); got != 2*2*2 {
		t.Errorf("forkSpec forks %d arms, want 8 (s2s-lob and rerouting of each attacked trunk)", got)
	}
}

// TestKillResumeMidGroup kills a sweep after a group's first member is
// committed but before its last one is. The resumed run must re-form the
// group around its first uncommitted member and still reproduce the
// point-by-point bytes. The kill runs on one worker, which can be at most
// two points past the kill when it stops, so the kill lands inside the
// first group at every scheduling. Fault-free, the group is one shared
// simulation; attacked, it is a trunk and two forked arms, so the kill
// falls between the committed trunk and its arms and the resumed run
// re-simulates the trunk, unrecorded, up to the arms' forks.
func TestKillResumeMidGroup(t *testing.T) {
	for _, attack := range []string{"none", "dest"} {
		killResumeMidGroup(t, attack)
	}
}

func killResumeMidGroup(t *testing.T, attack string) {
	spec := Spec{
		Benchmarks:  []string{"blackscholes"},
		Attacks:     []AttackSpec{{Kind: attack}},
		Mitigations: []string{"none", "s2s-lob", "rerouting"},
		Seeds:       []uint64{1, 2, 3, 4},
		Warmup:      150,
		Measure:     250,
	}
	// Seeds are innermost, so seed 1's group is points {0, 4, 8}.
	if want := map[string]int{"none": 0, "dest": 8}[attack]; forked(newPlan(spec.Expand(), 0, 1)) != want {
		t.Fatalf("attack %s: the grid forks %d arms, want %d", attack, forked(newPlan(spec.Expand(), 0, 1)), want)
	}
	// Resumed after point 0, seed 1's group re-forms around point 4 with
	// its trunk unrecorded.
	if st := newPlan(spec.Expand(), 1, 1).steps[0][3]; st.index != 4 || st.group == nil ||
		(attack == "dest") != (st.group.trunkSlot < 0) {
		t.Fatalf("attack %s: a resume past the trunk's record plans %+v for point 4", attack, st)
	}
	ref := pointByPoint(t, spec)
	for _, workers := range []int{1, 3} {
		out := filepath.Join(t.TempDir(), "out.jsonl")
		ctx, cancel := context.WithCancel(context.Background())
		_, err := Run(ctx, spec, out, Options{
			Workers:         1,
			CheckpointEvery: 1,
			OnRecord: func(written int) {
				if written >= 2 {
					cancel()
				}
			},
		})
		cancel()
		if err == nil {
			t.Fatal("cancelled run reported success")
		}
		ck, ok, err := ReadCheckpoint(CheckpointPath(out))
		if err != nil || !ok {
			t.Fatalf("no checkpoint after kill: %v", err)
		}
		if ck.Written < 1 || ck.Written > 8 {
			t.Fatalf("kill committed %d records, not inside seed 1's group {0, 4, 8}", ck.Written)
		}
		if _, err := Run(context.Background(), spec, out, Options{Workers: workers, Resume: true}); err != nil {
			t.Fatalf("resume at workers=%d: %v", workers, err)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, ref) {
			t.Errorf("attack %s, resumed at %d with workers=%d: output differs from the point-by-point reference", attack, ck.Written, workers)
		}
	}
}

// TestPlanCounts pins how many simulations and simulated cycles the
// shipped specs plan and checks the schedule's shape at several worker
// counts and resume points. Without prefix sharing sweep-1080 simulated
// 1080 full runs of 600 cycles (648,000 cycles) and cross-topology 9 of
// 3000 (27,000); the grids with a single mitigation share nothing.
func TestPlanCounts(t *testing.T) {
	for _, c := range []struct {
		file         string
		points, runs int
		cycles       uint64
	}{
		// 540 trunks of 600 cycles, 270 s2s-lob arms forked at the end of
		// cycle 299 (301 cycles) and 270 rerouting arms at 499 (101).
		{"sweep-1080.json", 1620, 1080, 540*600 + 270*301 + 270*101},
		// 6 trunks of 3000 cycles and 3 s2s-lob arms forked at 1499.
		{"cross-topology.json", 12, 9, 6*3000 + 3*1501},
		{"adversary-modes.json", 24, 24, 24 * 3000},
		{"adaptive-adversary.json", 36, 36, 36 * 3000},
	} {
		data, err := os.ReadFile(filepath.Join("..", "..", "specs", c.file))
		if err != nil {
			t.Fatal(err)
		}
		spec, err := ParseSpec(data)
		if err != nil {
			t.Fatal(err)
		}
		scenarios := spec.Expand()
		if len(scenarios) != c.points {
			t.Fatalf("%s: %d points, want %d", c.file, len(scenarios), c.points)
		}
		if n := runs(newPlan(scenarios, 0, 2)); n != c.runs {
			t.Errorf("%s: plans %d runs for %d points, want %d", c.file, n, c.points, c.runs)
		}
		if n, cycles := Cost(scenarios); n != c.runs || cycles != c.cycles {
			t.Errorf("%s: costs %d runs and %d cycles, want %d and %d", c.file, n, cycles, c.runs, c.cycles)
		}
		for _, workers := range []int{1, 3} {
			for _, start := range []int{0, len(scenarios) / 3} {
				checkPlan(t, c.file, scenarios, newPlan(scenarios, start, workers), start)
			}
		}
	}
}

// simID names the simulation a point's record comes from: its scenario
// with the mitigation normalised, and "none" when the mitigation cannot
// act before the run ends.
func simID(sc Scenario) string {
	cfg, err := sc.Config()
	if err != nil {
		return "invalid"
	}
	sc.Mitigation = cfg.Mitigation.String()
	if d := cfg.DivergesAt(); d != 0 && d > uint64(cfg.Warmup+cfg.Measure) {
		sc.Mitigation = "none"
	}
	data, _ := json.Marshal(sc)
	return string(data)
}

// checkPlan verifies a schedule's invariants: every point in [start, n)
// appears exactly once, each worker walks its points in grid order, a
// group's arms are in fork order, and a point finds its record slot
// filled by its own simulation, not overwritten by another group's.
func checkPlan(t *testing.T, name string, scenarios []Scenario, p plan, start int) {
	t.Helper()
	seen := make([]bool, len(scenarios))
	for wk, steps := range p.steps {
		filled := make([]string, p.slots[wk]) // per slot: the simulation that filled it
		prev := -1
		for _, st := range steps {
			if st.index < start || st.index >= len(scenarios) || seen[st.index] {
				t.Fatalf("%s: point %d planned twice or out of range [%d, %d)", name, st.index, start, len(scenarios))
			}
			seen[st.index] = true
			if st.index <= prev {
				t.Fatalf("%s: worker %d walks point %d after %d", name, wk, st.index, prev)
			}
			prev = st.index
			sc := scenarios[st.index]
			if g := st.group; g != nil {
				if !slices.IsSorted(g.forks) {
					t.Fatalf("%s: point %d's group forks out of order: %v", name, st.index, g.forks)
				}
				if len(g.arms) > 0 {
					sc.Mitigation = "none"
				}
				if g.trunkSlot >= 0 {
					filled[g.trunkSlot] = simID(sc)
				}
				for k, m := range g.arms {
					sc.Mitigation = m.String()
					filled[g.armSlots[k]] = simID(sc)
				}
			}
			if got := filled[st.slot]; got != simID(scenarios[st.index]) {
				t.Fatalf("%s: point %d reads slot %d, which holds another simulation", name, st.index, st.slot)
			}
		}
	}
	for i := start; i < len(scenarios); i++ {
		if !seen[i] {
			t.Fatalf("%s: point %d is not planned", name, i)
		}
	}
}

// TestPlanMergesOnlyInertArms checks the grouping rule at the edges: ""
// and "none" are the same simulation everywhere, attacked s2s-lob and
// rerouting arms fork from the unmitigated trunk, transient upsets and the
// other mitigations keep a point apart, and a point that fails to lower
// still fails at its own index.
func TestPlanMergesOnlyInertArms(t *testing.T) {
	spec := Spec{
		Attacks:     []AttackSpec{{Kind: "none"}, {Kind: "dest"}},
		Mitigations: []string{"", "none", "s2s-lob", "rerouting", "tdm-qos", "e2e-obfuscation"},
	}
	// Fault-free: the first four are one simulation; tdm and e2e stand
	// alone. Attacked: "" and "none" merge into the trunk, s2s-lob and
	// rerouting fork from it, tdm and e2e stand alone.
	if p := newPlan(spec.Expand(), 0, 2); runs(p) != 3+5 || forked(p) != 2 {
		t.Errorf("plans %d runs (%d forked), want 8 (2)", runs(p), forked(p))
	}
	spec.TransientBER = 1e-4
	if p := newPlan(spec.Expand(), 0, 2); runs(p) != 5+5 || forked(p) != 0 {
		t.Errorf("with transient upsets: plans %d runs (%d forked), want 10 (0): only \"\" and \"none\" merge", runs(p), forked(p))
	}

	bad := Spec{
		Attacks:     []AttackSpec{{Kind: "none"}},
		Mitigations: []string{"none", "firewall", "s2s-lob"},
		Warmup:      50,
		Measure:     50,
	}
	_, err := Run(context.Background(), bad, filepath.Join(t.TempDir(), "out.jsonl"), Options{Workers: 2})
	if err == nil || !strings.HasPrefix(err.Error(), "point 1: ") {
		t.Fatalf("a point that fails to lower must fail at its own index; got %v", err)
	}
}
