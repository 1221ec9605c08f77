package campaign

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tasp/internal/core"
)

// groupSpec crosses a fault-free arm with every mitigation the plan can
// merge, plus "" beside "none" (both lower to no mitigation), and an
// attacked arm where only "" and "none" merge.
func groupSpec() Spec {
	spec := testSpec()
	spec.Mitigations = []string{"none", "s2s-lob", "", "rerouting"}
	return spec
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

// runs counts a plan's simulations: the RunInto calls its workers make.
func runs(p plan) int {
	n := 0
	for _, steps := range p.steps {
		for _, st := range steps {
			if st.run {
				n++
			}
		}
	}
	return n
}

// TestRunMatchesPointByPoint checks that running each distinct simulation
// once changes no byte: campaign.Run's output equals simulating every point
// separately, at any worker count.
func TestRunMatchesPointByPoint(t *testing.T) {
	spec := groupSpec()
	if n := runs(newPlan(spec.Expand(), 0, 1)); n >= spec.Size() {
		t.Fatalf("the spec plans %d runs for %d points: nothing merges, so the test proves nothing", n, spec.Size())
	}
	ref := pointByPoint(t, spec)
	for _, workers := range []int{1, 3} {
		if got := runToBytes(t, spec, Options{Workers: workers}); !bytes.Equal(got, ref) {
			t.Errorf("workers=%d: output differs from the point-by-point reference", workers)
		}
	}
}

// TestKillResumeMidGroup kills a sweep after a group's first member is
// committed but before its last one is. The resumed run must re-form the
// group around its first uncommitted member and still reproduce the
// point-by-point bytes. The kill runs on one worker, which can be at most
// two points past the kill when it stops, so the kill lands inside the
// first group at every scheduling.
func TestKillResumeMidGroup(t *testing.T) {
	spec := Spec{
		Benchmarks:  []string{"blackscholes"},
		Attacks:     []AttackSpec{{Kind: "none"}},
		Mitigations: []string{"none", "s2s-lob", "rerouting"},
		Seeds:       []uint64{1, 2, 3, 4},
		Warmup:      150,
		Measure:     150,
	}
	// Seeds are innermost, so seed 1's group is points {0, 4, 8}.
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
			t.Errorf("resumed at %d with workers=%d: output differs from the point-by-point reference", ck.Written, workers)
		}
	}
}

// TestPlanCounts pins how many simulations the shipped specs plan and
// checks the schedule's shape at several worker counts and resume points.
func TestPlanCounts(t *testing.T) {
	for _, c := range []struct {
		file         string
		points, runs int
	}{
		{"sweep-1080.json", 1620, 1080},
		{"cross-topology.json", 12, 9},
		{"adversary-modes.json", 24, 24},
		{"adaptive-adversary.json", 36, 36},
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
		for _, workers := range []int{1, 3} {
			for _, start := range []int{0, len(scenarios) / 3} {
				checkPlan(t, c.file, scenarios, newPlan(scenarios, start, workers), start)
			}
		}
	}
}

// checkPlan verifies a schedule's invariants: every point in [start, n)
// appears exactly once, each worker walks its points in grid order, and a
// point that reuses a record slot finds it filled by a run of its own
// simulation, not overwritten by another group's.
func checkPlan(t *testing.T, name string, scenarios []Scenario, p plan, start int) {
	t.Helper()
	seen := make([]bool, len(scenarios))
	for wk, steps := range p.steps {
		filled := make([]string, p.slots[wk]) // per slot: key of the run that filled it
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
			key, _ := simKey(scenarios[st.index])
			if st.run {
				filled[st.slot] = key
			} else if filled[st.slot] != key {
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
// and "none" are the same simulation everywhere, attacked arms and
// transient upsets keep every other mitigation apart, and a point that
// fails to lower still fails at its own index.
func TestPlanMergesOnlyInertArms(t *testing.T) {
	spec := Spec{
		Attacks:     []AttackSpec{{Kind: "none"}, {Kind: "dest"}},
		Mitigations: []string{"", "none", "s2s-lob", "rerouting", "tdm-qos", "e2e-obfuscation"},
	}
	// Fault-free: the first four are one simulation; tdm and e2e stand
	// alone. Attacked: only "" and "none" merge.
	if got := runs(newPlan(spec.Expand(), 0, 2)); got != 3+5 {
		t.Errorf("plans %d runs, want 8", got)
	}
	spec.TransientBER = 1e-4
	if got := runs(newPlan(spec.Expand(), 0, 2)); got != 5+5 {
		t.Errorf("with transient upsets: plans %d runs, want 10 (only \"\" and \"none\" merge)", got)
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
