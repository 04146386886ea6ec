package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the boundary. Times are nanoseconds since the tracer was created.
type span struct {
	Name   string `json:"name"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for a root
	Op     int64  `json:"op"`     // the benchmark op this span served
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so workloads call it unconditionally
// off the hot path and guard it with one nil check on it.
type tracer struct {
	t0 time.Time
	// enabled gates recording: the traced run switches it off for its
	// reference window, so the wrappers stay installed and only the spans
	// differ between the two goodputs it compares.
	enabled atomic.Bool
	mu      sync.Mutex
	spans   []span
}

const noSpan = int32(-1)

func newTracer() *tracer {
	t := &tracer{t0: time.Now(), spans: make([]span, 0, 1<<18)}
	t.enabled.Store(true)
	return t
}

func (t *tracer) on()  { t.enabled.Store(true) }
func (t *tracer) off() { t.enabled.Store(false) }

// active reports whether spans are being recorded right now.
func (t *tracer) active() bool { return t != nil && t.enabled.Load() }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// start opens a span and returns its id.
func (t *tracer) start(name string, op int64, parent int32) int32 {
	if !t.active() {
		return noSpan
	}
	now := t.now()
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Op: op, Start: now})
	t.mu.Unlock()
	return id
}

// end closes a span opened by start.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// snapshot returns the closed spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= s.Start && s.End != 0 {
			out = append(out, s)
		}
	}
	return out
}

// between returns the closed spans opened in [from, to) nanoseconds.
func (t *tracer) between(from, to int64) []span {
	var out []span
	for _, s := range t.snapshot() {
		if s.Start >= from && s.Start < to {
			out = append(out, s)
		}
	}
	return out
}

// writeJSON dumps the spans for offline inspection.
func (t *tracer) writeJSON(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: create %s: %w", path, err)
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(t.snapshot()); err != nil {
		f.Close()
		return fmt.Errorf("trace: write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: close %s: %w", path, err)
	}
	return nil
}

type spanCtxKey struct{}

// withSpan carries a span id (and its op) down a call chain so a wrapper
// deeper in the same request can name its parent.
func withSpan(ctx context.Context, t *tracer, id int32) context.Context {
	if t == nil || id < 0 {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, id)
}

func spanFrom(ctx context.Context) int32 {
	if id, ok := ctx.Value(spanCtxKey{}).(int32); ok {
		return id
	}
	return noSpan
}

// opOf returns the op id of a recorded span, or 0.
func (t *tracer) opOf(id int32) int64 {
	if t == nil || id < 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id].Op
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its direct children cover. Children may overlap each other
// (parallel pulls) and may stick out of the parent (a child that outlives a
// cancelled parent); the covered part is the union of the child intervals
// clipped to the parent.
func selfTimes(spans []span) map[int32]int64 {
	children := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int32]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered int64
		cursor := s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cursor), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// spanStats aggregates the spans of one name.
type spanStats struct {
	n        int
	total    int64 // Σ duration, ns
	self     int64 // Σ self time, ns
	duration []int64
}

func statsByName(spans []span) map[string]*spanStats {
	self := selfTimes(spans)
	out := make(map[string]*spanStats)
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		st.n++
		st.total += s.End - s.Start
		st.self += self[s.ID]
		st.duration = append(st.duration, s.End-s.Start)
	}
	return out
}

func (s *spanStats) meanNs() float64 {
	if s == nil || s.n == 0 {
		return 0
	}
	return float64(s.total) / float64(s.n)
}

func (s *spanStats) selfMeanNs() float64 {
	if s == nil || s.n == 0 {
		return 0
	}
	return float64(s.self) / float64(s.n)
}

func (s *spanStats) durations() []int64 {
	if s == nil {
		return nil
	}
	return s.duration
}

// tailLadder are the upper percentiles a timing may be reported at, each with
// the number of samples it takes to have ten beyond it.
var tailLadder = []struct {
	p       float64
	minimum int
}{{99.9, 10000}, {99, 1000}, {95, 200}, {90, 100}, {75, 40}}

// highestSupported picks the highest ladder percentile that still has at
// least ten samples beyond it; below 40 samples only the median is sound and
// it returns 50.
func highestSupported(n int) float64 {
	for _, t := range tailLadder {
		if n >= t.minimum {
			return t.p
		}
	}
	return 50
}

// percentile returns the p-th percentile (nearest rank) of sorted samples.
func percentile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(float64(len(sorted))*p/100+0.9999999) - 1
	rank = max(0, min(rank, len(sorted)-1))
	return float64(sorted[rank])
}

// timing is a reported latency distribution: the median, the tail at the
// requested percentile or — when the sample is too small to carry it — at
// the highest percentile it does carry, and the sample count.
type timing struct {
	N     int     // samples
	P50   float64 // ns
	Tail  float64 // ns, at percentile TailP
	TailP float64
}

// summarize reports samples with a tail no higher than wantTail.
func summarize(samples []int64, wantTail float64) timing {
	if len(samples) == 0 {
		return timing{}
	}
	sorted := append([]int64(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	p := min(wantTail, highestSupported(len(sorted)))
	return timing{N: len(sorted), P50: percentile(sorted, 50), Tail: percentile(sorted, p), TailP: p}
}
