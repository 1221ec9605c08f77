package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"tasp/internal/campaign"
	"tasp/internal/core"
)

// ckptEvery matches campaign.Run's default checkpoint interval.
const ckptEvery = 64

type encoded struct {
	index int
	buf   []byte
}

// drive runs a grid the way campaign.Run does, in the benchmark's own code
// so it can record spans around each call and keep every point's counters:
// points striped statically over the workers, one core.Runner each,
// Scenario.Config → RunInto → Record.Fill → AppendJSONL, and an in-order
// writer that syncs and checkpoints every ckptEvery records. Its JSONL is
// byte-identical to campaign.Run's. A point that fails (an error or a
// panic in RunInto) is kept in its stats and writes no record. A nil
// tracer records nothing.
func drive(scenarios []campaign.Scenario, specHash uint64, path string, tr *tracer) ([]pointStats, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	root := tr.start("campaign.run", -1, -1)
	defer tr.end(root)

	stats := make([]pointStats, len(scenarios))
	results := make(chan encoded, workers)
	free := make(chan []byte, 4*workers+4) // campaign.Run's buffer pool size
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			driveWorker(scenarios, wk, tr, root, free, results, stats)
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	wspan := tr.start("campaign.writer", root, -1)
	next, dirty, written := 0, 0, 0
	var offset int64
	var werr error
	pending := map[int][]byte{}
	for e := range results {
		if werr != nil {
			continue // drain so the workers finish
		}
		pending[e.index] = e.buf
		for buf, ok := pending[next]; ok; buf, ok = pending[next] {
			s := tr.start("campaign.commit", wspan, int32(next))
			delete(pending, next)
			if _, werr = f.Write(buf); werr != nil {
				break
			}
			offset += int64(len(buf))
			next++
			written++
			dirty++
			select {
			case free <- buf:
			default:
			}
			if dirty >= ckptEvery {
				werr = checkpoint(f, path, specHash, written, offset, tr, s)
				dirty = 0
			}
			tr.end(s)
		}
	}
	if werr == nil && dirty > 0 {
		werr = checkpoint(f, path, specHash, written, offset, tr, wspan)
	}
	tr.end(wspan)
	if werr != nil {
		return stats, werr
	}
	return stats, f.Close()
}

func driveWorker(scenarios []campaign.Scenario, wk int, tr *tracer, root int32, free chan []byte, results chan<- encoded, stats []pointStats) {
	wspan := tr.start("campaign.worker", root, -1)
	defer tr.end(wspan)
	runner := core.NewRunner()
	res := &core.Results{}
	var rec campaign.Record
	for i := wk; i < len(scenarios); i += workers {
		sc := scenarios[i]
		pt := tr.start("campaign.point", wspan, int32(i))
		s := tr.start("campaign.config", pt, int32(i))
		cfg, err := sc.Config()
		tr.end(s)
		if err == nil {
			s = tr.start("core.run_into", pt, int32(i))
			err = runInto(runner, cfg, res)
			tr.end(s)
		}
		if err != nil {
			// A failed point writes no record; a panicking one leaves its
			// arena in an unknown state, so the worker starts afresh.
			stats[i].err = fmt.Errorf("point %d: %w", i, err)
			runner, res = core.NewRunner(), &core.Results{}
			results <- encoded{i, nil}
			tr.end(pt)
			continue
		}
		stats[i] = statsOf(cfg, res)
		s = tr.start("campaign.fill", pt, int32(i))
		rec.Index = i
		rec.Topology = cfg.Noc.Topo
		if rec.Topology == "" {
			rec.Topology = "mesh"
		}
		rec.Width, rec.Height = cfg.Noc.Width, cfg.Noc.Height
		rec.Benchmark = cfg.Benchmark
		rec.Attack = sc.Attack.Name()
		rec.Mitigation = cfg.Mitigation.String()
		rec.Seed = sc.Seed
		rec.Fill(res)
		tr.end(s)
		var buf []byte
		select {
		case buf = <-free:
		default:
		}
		s = tr.start("campaign.encode", pt, int32(i))
		buf = rec.AppendJSONL(buf[:0])
		tr.end(s)
		stats[i].line = append([]byte(nil), buf...)
		s = tr.start("campaign.send", pt, int32(i))
		results <- encoded{i, buf}
		tr.end(s)
		tr.end(pt)
	}
}

// runInto is RunInto with a panic reported as the point's error.
func runInto(r *core.Runner, cfg core.ExperimentConfig, res *core.Results) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic in RunInto: %v", p)
		}
	}()
	return r.RunInto(cfg, res)
}

// checkpoint syncs the output and commits a campaign checkpoint sidecar
// (write temp, rename), as campaign.Run's writer does.
func checkpoint(f *os.File, path string, specHash uint64, written int, offset int64, tr *tracer, parent int32) error {
	s := tr.start("campaign.checkpoint", parent, -1)
	defer tr.end(s)
	if err := f.Sync(); err != nil {
		return err
	}
	data, err := json.Marshal(campaign.Checkpoint{SpecHash: specHash, Written: written, Offset: offset})
	if err != nil {
		return err
	}
	ckpt := campaign.CheckpointPath(path)
	if err := os.WriteFile(ckpt+".tmp", data, 0o644); err != nil {
		return err
	}
	return os.Rename(ckpt+".tmp", ckpt)
}
