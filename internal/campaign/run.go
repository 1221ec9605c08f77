package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"

	"tasp/internal/core"
)

// Options configures a sweep execution.
type Options struct {
	// Workers is the pool size (0 = GOMAXPROCS). The output bytes are
	// identical at any worker count.
	Workers int
	// CheckpointEvery commits a checkpoint every N records (0 = 64).
	CheckpointEvery int
	// Resume continues a previous run of the same spec from its checkpoint:
	// the output file is truncated to the last committed byte and the sweep
	// restarts at the first uncommitted point.
	Resume bool
	// OnRecord, when set, is called after each committed record with the
	// total committed so far (progress reporting; also the test hook that
	// kills runs mid-sweep).
	OnRecord func(written int)
}

// Run executes a spec's grid into a JSONL file at outPath (one Record per
// point, in grid order) with a checkpoint sidecar next to it. It returns
// the number of records committed over the run's whole life (including a
// resumed prefix). A context cancellation stops the sweep at a record
// boundary — already-committed output stays valid for Resume — and returns
// ctx.Err().
func Run(ctx context.Context, spec Spec, outPath string, opt Options) (int, error) {
	scenarios := spec.Expand()
	hash := spec.Hash()
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ckptEvery := opt.CheckpointEvery
	if ckptEvery <= 0 {
		ckptEvery = 64
	}
	ckptPath := CheckpointPath(outPath)

	start := 0
	var offset int64
	if opt.Resume {
		ck, ok, err := ReadCheckpoint(ckptPath)
		if err != nil {
			return 0, err
		}
		if !ok {
			return 0, fmt.Errorf("resume: no checkpoint at %s", ckptPath)
		}
		if ck.SpecHash != hash {
			return 0, fmt.Errorf("resume: checkpoint %s was written by a different spec", ckptPath)
		}
		if ck.Written > len(scenarios) {
			return 0, fmt.Errorf("resume: checkpoint claims %d records but the grid has %d points", ck.Written, len(scenarios))
		}
		start, offset = ck.Written, ck.Offset
	}

	flags := os.O_CREATE | os.O_WRONLY
	if !opt.Resume {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(outPath, flags, 0o644)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	if opt.Resume {
		// The checkpoint must describe THIS file: truncating to an offset
		// beyond the end would zero-extend the JSONL (sparse NULs), silently
		// breaking byte-determinism. A longer offset means the sidecar is
		// stale or belongs to a different output file.
		st, err := f.Stat()
		if err != nil {
			return 0, err
		}
		if offset > st.Size() {
			return 0, fmt.Errorf("resume: checkpoint %s claims offset %d but %s is only %d bytes (stale or foreign checkpoint)",
				ckptPath, offset, outPath, st.Size())
		}
		// Drop any partial record written after the last checkpoint.
		if err := f.Truncate(offset); err != nil {
			return 0, err
		}
		if _, err := f.Seek(offset, 0); err != nil {
			return 0, err
		}
	}

	w := &writer{
		f:         f,
		ckptPath:  ckptPath,
		ckptEvery: ckptEvery,
		specHash:  hash,
		next:      start,
		written:   start,
		offset:    offset,
		pending:   map[int][]byte{},
		free:      make(chan []byte, 4*workers+4),
		onRecord:  opt.OnRecord,
	}

	// The plan deals the remaining points' simulation groups to the
	// workers up front, so each worker's sequence (and its arena reuse) is
	// deterministic, though determinism of the output only relies on
	// per-point determinism plus the in-order writer.
	p := newPlan(scenarios, start, workers)
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(chan encoded, workers)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			if err := worker(runCtx, scenarios, p.steps[wk], p.slots[wk], p.arms, w.free, results); err != nil {
				errs <- err
				cancel()
			}
		}(wk)
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	var failed error
	for e := range results {
		if failed != nil {
			continue // drain so workers aren't blocked on send
		}
		if err := w.commit(e); err != nil {
			failed = err
			cancel()
		}
	}
	if failed == nil {
		select {
		case failed = <-errs:
		default:
		}
	}
	if failed == nil {
		failed = ctx.Err()
	}
	// Commit what we have — on success, cancellation and worker failure
	// alike — so the run is resumable from the last complete record.
	if w.dirty > 0 || w.written == start {
		if err := w.checkpoint(); err != nil && failed == nil {
			failed = err
		}
	}
	return w.written, failed
}

// plan is a run's schedule. Points whose simulations share a prefix form a
// group: one unmitigated trunk run plus the s2s-lob and rerouting arms core
// lets fork from it (core.ExperimentConfig.DivergesAt). A group is
// simulated in one go by its first member (core.Runner.RunGroup), which
// fills one record slot per distinct simulation; every member then labels
// its simulation's slot. Groups are dealt round-robin to the workers in the
// order of their first members.
type plan struct {
	steps [][]step // per worker, in grid order
	slots []int    // per worker: record slots that must be live at once
	arms  int      // the most arms in any group
}

// step is one point of a worker's schedule.
type step struct {
	index int    // grid index
	slot  int    // the worker's record slot that holds the point's simulation
	group *group // set on a group's first member: simulate the whole group
}

// group is one trunk and the arms forked from it.
type group struct {
	trunkSlot int // record slot of the trunk's run; -1 = unrecorded
	arms      []core.Mitigation
	armSlots  []int
	forks     []uint64 // per arm: DivergesAt, ascending
	total     uint64   // cycles in a full run

	last   int // planning: grid index of the group's last member
	worker int // planning: the worker the group is dealt to
}

// cycles counts the cycles simulating the group costs: the trunk up to its
// end (or, unrecorded, up to the last fork) and each arm from its fork on.
func (g *group) cycles() uint64 {
	n := g.total
	if g.trunkSlot < 0 && len(g.forks) > 0 {
		n = min(g.forks[len(g.forks)-1]-1, g.total)
	}
	for _, d := range g.forks {
		n += g.total - min(d-1, g.total)
	}
	return n
}

// member is a point's place in its group during planning: an arm with its
// mitigation, or (arm false) the trunk's simulation.
type member struct {
	g   *group
	arm bool
	mit core.Mitigation
}

// newPlan groups scenarios[start:] by shared simulation prefix and deals
// the groups to the workers. A resumed run plans only its uncommitted
// suffix, so a group whose first member was already committed re-forms
// around its first uncommitted member. Record slots are reused once a
// group's last member has been emitted, so a worker needs as many slots as
// the simulations of the groups it has open at once.
func newPlan(scenarios []Scenario, start, workers int) plan {
	ids := map[string]*group{}
	members := make([]member, len(scenarios)-start)
	for i := start; i < len(scenarios); i++ {
		key, cfg, ok := groupKey(scenarios[i])
		g := ids[key]
		if !ok || g == nil {
			g = &group{trunkSlot: -1, total: uint64(cfg.Warmup + cfg.Measure), worker: -1}
			if ok {
				ids[key] = g
			}
		}
		g.last = i
		m := member{g: g, mit: cfg.Mitigation}
		if d := cfg.DivergesAt(); ok && d != 0 && d <= g.total {
			m.arm = true
			if !slices.Contains(g.arms, m.mit) {
				// Fork order: the trunk reaches each arm's fork before the next.
				k, _ := slices.BinarySearch(g.forks, d)
				g.forks = slices.Insert(g.forks, k, d)
				g.arms = slices.Insert(g.arms, k, m.mit)
			}
		} else {
			g.trunkSlot = 0 // recorded; the slot is assigned when dealt
		}
		members[i-start] = m
	}

	p := plan{steps: make([][]step, workers), slots: make([]int, workers)}
	free := make([][]int, workers) // per worker: released slots
	take := func(wk int) int {
		if n := len(free[wk]); n > 0 {
			s := free[wk][n-1]
			free[wk] = free[wk][:n-1]
			return s
		}
		p.slots[wk]++
		return p.slots[wk] - 1
	}
	dealt := 0
	for i := start; i < len(scenarios); i++ {
		m := members[i-start]
		g := m.g
		st := step{index: i}
		if g.worker < 0 {
			g.worker = dealt % workers
			dealt++
			st.group = g
			if g.trunkSlot >= 0 {
				g.trunkSlot = take(g.worker)
			}
			g.armSlots = make([]int, len(g.arms))
			for k := range g.armSlots {
				g.armSlots[k] = take(g.worker)
			}
			p.arms = max(p.arms, len(g.arms))
		}
		st.slot = g.trunkSlot
		if m.arm {
			st.slot = g.armSlots[slices.Index(g.arms, m.mit)]
		}
		p.steps[g.worker] = append(p.steps[g.worker], st)
		if g.last == i {
			if g.trunkSlot >= 0 {
				free[g.worker] = append(free[g.worker], g.trunkSlot)
			}
			free[g.worker] = append(free[g.worker], g.armSlots...)
		}
	}
	return p
}

// groupKey identifies the group a scenario belongs to: the scenario with
// its mitigation replaced by "none" when core lets the point share the
// unmitigated run's prefix (DivergesAt > 0), and otherwise normalised to
// the name core resolves it to, so that only identical simulations share
// it. Points that fail to lower get no key and so run alone, failing at
// their own index.
func groupKey(sc Scenario) (string, core.ExperimentConfig, bool) {
	cfg, err := sc.Config()
	if err != nil {
		return "", cfg, false
	}
	sc.Mitigation = cfg.Mitigation.String()
	if cfg.DivergesAt() != 0 {
		sc.Mitigation = core.NoMitigation.String()
	}
	data, err := json.Marshal(sc)
	if err != nil {
		return "", cfg, false
	}
	return string(data), cfg, true
}

// Cost reports what running a grid costs after grouping: the simulations
// (one per trunk and one per forked arm) and the cycles they simulate.
func Cost(scenarios []Scenario) (simulations int, cycles uint64) {
	for _, steps := range newPlan(scenarios, 0, 1).steps {
		for _, st := range steps {
			if g := st.group; g != nil {
				simulations += len(g.arms)
				if g.trunkSlot >= 0 {
					simulations++
				}
				cycles += g.cycles()
			}
		}
	}
	return simulations, cycles
}

// worker walks its planned points in grid order, encoding each record into
// a recycled buffer. At a group's first member it simulates the whole
// group, filling one record slot per simulation; every member then labels
// its simulation's slot. One core.Runner per worker: repeated points on the
// same platform reuse its arenas, which is where the engine's 0
// allocs/point steady state comes from.
func worker(ctx context.Context, scenarios []Scenario, steps []step, slots, arms int, free chan []byte, results chan<- encoded) error {
	runner := core.NewRunner()
	res := make([]*core.Results, 1+arms) //nocvet:allowalloc once per worker, sized by the plan
	for k := range res {
		res[k] = &core.Results{} //nocvet:allowalloc once per worker, not per point; RunGroup reuses them
	}
	recs := make([]Record, slots) //nocvet:allowalloc once per worker, sized by the plan
	for _, st := range steps {
		if ctx.Err() != nil {
			return nil
		}
		i := st.index
		sc := scenarios[i]
		cfg, err := sc.Config()
		if err != nil {
			return fmt.Errorf("point %d: %w", i, err) //nocvet:allowalloc error path aborts the sweep
		}
		if g := st.group; g != nil {
			trunk := cfg
			if trunk.DivergesAt() != 0 {
				trunk.Mitigation = core.NoMitigation
			}
			var trunkRes *core.Results
			if g.trunkSlot >= 0 {
				trunkRes = res[0]
			}
			armRes := res[1 : 1+len(g.arms)]
			if err := runner.RunGroup(trunk, trunkRes, g.arms, armRes); err != nil {
				return fmt.Errorf("point %d: %w", i, err) //nocvet:allowalloc error path aborts the sweep
			}
			if trunkRes != nil {
				recs[g.trunkSlot].Fill(trunkRes)
			}
			for k, r := range armRes {
				recs[g.armSlots[k]].Fill(r)
			}
		}
		rec := &recs[st.slot]
		rec.label(i, sc, &cfg)
		var buf []byte
		select {
		case buf = <-free:
		default: // pool empty; grow it
		}
		buf = rec.AppendJSONL(buf[:0])
		//nocvet:nondet commit order is index-restored by the writer; the race only decides shutdown timing
		select {
		case results <- encoded{index: i, buf: buf}:
		case <-ctx.Done():
			return nil
		}
	}
	return nil
}
