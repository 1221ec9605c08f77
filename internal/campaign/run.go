package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
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

	// The plan deals the remaining points' distinct simulations to the
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
			if err := worker(runCtx, scenarios, p.steps[wk], p.slots[wk], w.free, results); err != nil {
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

// plan is a run's schedule. Points whose simulations are provably identical
// form a group that is simulated once, by its first member; the rest of the
// group copies that member's record. Groups are dealt round-robin to the
// workers in the order of their first members.
type plan struct {
	steps [][]step // per worker, in grid order
	slots []int    // per worker: record slots that must be live at once
}

// step is one point of a worker's schedule.
type step struct {
	index int  // grid index
	slot  int  // the worker's record slot that holds the point's group result
	run   bool // first member of its group: simulate into the slot
}

// newPlan groups scenarios[start:] by simulation and deals the groups to
// the workers. A resumed run plans only its uncommitted suffix, so a group
// whose first member was already committed re-forms around its first
// uncommitted member. Record slots are reused once a group's last member
// has been emitted, so a worker needs as many slots as it has groups open
// at once.
func newPlan(scenarios []Scenario, start, workers int) plan {
	ids := map[string]int{}
	group := make([]int, len(scenarios)-start) // per point: group id, in first-member order
	var last []int                             // per group: grid index of its last member
	for i := start; i < len(scenarios); i++ {
		g := len(last)
		if key, ok := simKey(scenarios[i]); ok {
			if id, seen := ids[key]; seen {
				g = id
			} else {
				ids[key] = g
			}
		}
		if g == len(last) {
			last = append(last, i)
		} else {
			last[g] = i
		}
		group[i-start] = g
	}

	p := plan{steps: make([][]step, workers), slots: make([]int, workers)}
	slot := make([]int, len(last))
	free := make([][]int, workers) // per worker: released slots
	opened := 0
	for i := start; i < len(scenarios); i++ {
		g := group[i-start]
		wk := g % workers
		st := step{index: i, run: g == opened}
		if st.run {
			opened++
			if n := len(free[wk]); n > 0 {
				slot[g], free[wk] = free[wk][n-1], free[wk][:n-1]
			} else {
				slot[g] = p.slots[wk]
				p.slots[wk]++
			}
		}
		st.slot = slot[g]
		p.steps[wk] = append(p.steps[wk], st)
		if last[g] == i {
			free[wk] = append(free[wk], slot[g])
		}
	}
	return p
}

// simKey identifies the simulation a scenario runs: the scenario with its
// mitigation normalised to the name core resolves it to, and to "none"
// when core reports the mitigation inert on this point. Points that fail
// to lower get no key and so run alone, failing at their own index.
func simKey(sc Scenario) (string, bool) {
	cfg, err := sc.Config()
	if err != nil {
		return "", false
	}
	sc.Mitigation = cfg.Mitigation.String()
	if cfg.MitigationInert() {
		sc.Mitigation = core.NoMitigation.String()
	}
	data, err := json.Marshal(sc)
	if err != nil {
		return "", false
	}
	return string(data), true
}

// worker walks its planned points in grid order, encoding each record into
// a recycled buffer. It simulates only a group's first member, into that
// group's record slot; later members reuse the slot and relabel it. One
// core.Runner per worker: repeated points on the same platform reuse its
// arenas, which is where the engine's 0 allocs/point steady state comes
// from.
func worker(ctx context.Context, scenarios []Scenario, steps []step, slots int, free chan []byte, results chan<- encoded) error {
	runner := core.NewRunner()
	res := &core.Results{}        //nocvet:allowalloc once per worker, not per point; RunInto reuses it
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
		rec := &recs[st.slot]
		if st.run {
			if err := runner.RunInto(cfg, res); err != nil {
				return fmt.Errorf("point %d: %w", i, err) //nocvet:allowalloc error path aborts the sweep
			}
			rec.Fill(res)
		}
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
