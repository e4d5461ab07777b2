package main

import (
	"math"
	"slices"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// ratio is a/b, or 0 when b is 0 (a workload whose every run failed).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// geomean returns the geometric mean of positive ratios.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	l := 0.0
	for _, x := range xs {
		l += math.Log(x)
	}
	return math.Exp(l / float64(len(xs)))
}

// span is one traced interval: a call into the program, timed from outside.
type span struct {
	ID      int            `json:"id"`
	Parent  int            `json:"parent"` // 0 for the root
	Name    string         `json:"name"`
	StartUS int64          `json:"start_us"` // since the tracer started
	EndUS   int64          `json:"end_us"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its id.
func (t *tracer) add(parent int, name string, start, end time.Time, attrs map[string]any) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name,
		StartUS: start.Sub(t.t0).Microseconds(), EndUS: end.Sub(t.t0).Microseconds(),
		Attrs: attrs,
	})
	return id
}

// begin opens a span whose end is set by the returned function.
func (t *tracer) begin(parent int, name string) (int, func(attrs map[string]any)) {
	if t == nil {
		return 0, func(map[string]any) {}
	}
	start := time.Now()
	id := t.add(parent, name, start, start, nil)
	return id, func(attrs map[string]any) {
		end := time.Now()
		t.mu.Lock()
		defer t.mu.Unlock()
		s := &t.spans[id-1]
		s.EndUS = end.Sub(t.t0).Microseconds()
		s.Attrs = attrs
	}
}
