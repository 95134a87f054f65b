package main

import (
	"sync"
	"time"
)

// tracer collects the spans the traced run records around calls into the
// program's public functions. Spans of one operation that do not nest are
// "covered" time; the rest of the operation's wall time is uncovered.
type tracer struct {
	mu      sync.Mutex
	sum     map[string]time.Duration
	calls   map[string]int
	counts  map[string]int64
	ops     int
	wall    time.Duration
	covered time.Duration
}

func newTracer() *tracer {
	return &tracer{sum: make(map[string]time.Duration), calls: make(map[string]int), counts: make(map[string]int64)}
}

// add records one call of layer that took d.
func (t *tracer) add(layer string, d time.Duration) {
	t.mu.Lock()
	t.sum[layer] += d
	t.calls[layer]++
	t.mu.Unlock()
}

// count adds n to the counter name.
func (t *tracer) count(name string, n int64) {
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// counter returns a counter's total.
func (t *tracer) counter(name string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// total returns a layer's summed time and the number of traced operations.
func (t *tracer) total(layer string) (time.Duration, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sum[layer], t.ops
}

// time runs fn and records it as one call of layer.
func (t *tracer) time(layer string, fn func()) time.Duration {
	start := time.Now()
	fn()
	d := time.Since(start)
	t.add(layer, d)
	return d
}

// op records one traced operation: its wall time and the part of it the
// operation's top-level spans account for.
func (t *tracer) op(wall, covered time.Duration) {
	t.mu.Lock()
	t.ops++
	t.wall += wall
	t.covered += covered
	t.mu.Unlock()
}

// perOp is the layer's mean time per traced operation, in unit.
func (t *tracer) perOp(layer string, unit time.Duration) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ops == 0 {
		return 0
	}
	return float64(t.sum[layer]) / float64(t.ops) / float64(unit)
}

// perCall is the layer's mean time per call, in unit.
func (t *tracer) perCall(layer string, unit time.Duration) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.calls[layer] == 0 {
		return 0
	}
	return float64(t.sum[layer]) / float64(t.calls[layer]) / float64(unit)
}

// uncoveredMS is the mean per-operation wall time no top-level span covers.
func (t *tracer) uncoveredMS() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ops == 0 {
		return 0
	}
	return float64(t.wall-t.covered) / float64(t.ops) / float64(time.Millisecond)
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
