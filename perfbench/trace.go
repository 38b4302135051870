package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval of a traced run. A client request and the
// server handler it caused share an identifier chain: the handler's span ID
// is the request's ID + 1 and names the request as its parent. Spans whose
// length the server reports (query_ms, publish_ms) are derived children of
// the handler span, placed at its end.
type span struct {
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory; write saves them when the run ends.
type tracer struct {
	t0    time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// ids reserves n consecutive span IDs and returns the first.
func (t *tracer) ids(n uint64) uint64 { return t.next.Add(n) - n + 1 }

func (t *tracer) add(id, parent uint64, name string, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: start.Sub(t.t0), End: end.Sub(t.t0)})
	t.mu.Unlock()
}

// time runs f inside a span of its own.
func (t *tracer) time(name string, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	t.add(t.ids(1), 0, name, start, end)
	return end.Sub(start)
}

// handlerSpans returns the duration of every handler span by parent ID.
func (t *tracer) handlerSpans() map[uint64]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[uint64]time.Duration)
	for _, s := range t.spans {
		if s.Name == "server.handler" {
			out[s.Parent] = s.End - s.Start
		}
	}
	return out
}

// selfTimes sums, per span name, the span's duration minus the part of it
// its children cover, and counts the spans.
func (t *tracer) selfTimes() map[string]selfTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[uint64]time.Duration)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]selfTime)
	for _, s := range t.spans {
		st := out[s.Name]
		st.Spans++
		st.SelfMS += ms(s.End - s.Start - child[s.ID])
		out[s.Name] = st
	}
	return out
}

type selfTime struct {
	Spans  int     `json:"spans"`
	SelfMS float64 `json:"self_ms"`
}

// write saves the spans and the per-layer self times as one JSON file in
// the output directory.
func (t *tracer) write(b *bench, cfg config) error {
	self := t.selfTimes()
	t.mu.Lock()
	sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].Start < t.spans[j].Start })
	doc := map[string]any{
		"workload":  cfg.workload.name,
		"seed":      cfg.seed,
		"self_time": self,
		"layers":    b.layer,
		"spans":     t.spans,
	}
	data, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload.name, cfg.seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// heapSampler records the peak heap size while it runs (traced runs only).
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak heap in MiB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// watchRuntime starts counting GC cycles and sampling the peak heap; the
// returned function stops both and adds them to the run's totals.
func (b *bench) watchRuntime() func() {
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	h := startHeapSampler()
	return func() {
		peak := h.finish()
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		b.gcCycles += int64(after.NumGC - before.NumGC)
		b.heapPeakMB = max(b.heapPeakMB, peak)
	}
}
