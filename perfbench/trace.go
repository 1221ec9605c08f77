package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Trace groups the spans of
// one operation (a campaign point or an experiment; -1 for none).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Trace  int32  `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written out when the run ends.
// A nil *tracer records nothing, so untraced code paths call it freely.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, 1<<14)}
}

// start opens a span and returns its id.
func (t *tracer) start(name string, parent, trace int32) int32 {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: now, End: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// finish returns the recorded spans; the tracer must not be used after.
func (t *tracer) finish() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans
}

// selfTimes returns, per span, its duration minus the part of its interval
// covered by its direct children (overlapping children count once).
func selfTimes(spans []span) []int64 {
	children := map[int32][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[i] = s.dur() - covered
	}
	return out
}

// writeSpans writes every traced pass's spans, one JSON object per line,
// after a first line holding the machine record.
func writeSpans(path, machine string, passes []passResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	bw.WriteString(machine)
	bw.WriteByte('\n')
	type row struct {
		Pass int `json:"pass"`
		span
		Self int64 `json:"self_ns"`
	}
	enc := json.NewEncoder(bw)
	for pi, p := range passes {
		self := selfTimes(p.spans)
		for i, s := range p.spans {
			if err := enc.Encode(row{pi, s, self[i]}); err != nil {
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLadder are the percentiles a tail is reported at.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9, 99.99}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tail returns the highest ladder percentile of xs that leaves at least
// minBeyond samples beyond it (nearest-rank), and its value; ok is false
// when too few samples leave even the median.
func tail(xs []float64) (pct, v float64, ok bool) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	for i := len(tailLadder) - 1; i >= 0; i-- {
		rank := max(1, int(math.Ceil(tailLadder[i]*float64(n)/100-1e-9)))
		if n-rank >= minBeyond {
			return tailLadder[i], s[rank-1], true
		}
	}
	return 0, 0, false
}

// idleFrac is the share of the workers' capacity over wall left unused.
func idleFrac(busy, wall time.Duration, workers int) float64 {
	if wall <= 0 {
		return 0
	}
	return 1 - float64(busy)/(float64(wall)*float64(workers))
}
