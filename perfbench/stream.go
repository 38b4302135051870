package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"anyscan/internal/index"
)

// resultEvery is how many stream batches pass between two Result calls.
const resultEvery = 20

// streamStage applies seeded batches to the set-up's Maintainer and
// materializes the clustering every resultEvery batches. The final
// clustering must equal an exact index query on the replayed graph.
type streamStage struct {
	b       *bench
	e       *env
	edges   *edgeSet
	rng     *rand.Rand
	batches int
	m       [2]streamSamples // untraced, traced
}

type streamSamples struct {
	applyUS, resultMS []float64
	mutations         int
	elapsed           time.Duration // summed over the calls, Result included
	allocs            uint64
}

func newStreamStage(b *bench, e *env) *streamStage {
	return &streamStage{
		b: b, e: e,
		edges: newEdgeSet(e.serveG, b.cfg.workload.weights),
		rng:   rand.New(rand.NewSource(subSeed(b.cfg.seed, 6))),
	}
}

// measure applies batches until d has passed, at least resultEvery of them.
func (s *streamStage) measure(d time.Duration, traced bool) error {
	b, m := s.b, &s.m[btoi(traced)]
	var before, after runtime.MemStats
	start := time.Now()
	for n := 1; time.Since(start) < d || n <= resultEvery; n++ {
		batch := s.edges.batch(s.rng, batchSize)
		muts := dynamicBatch(batch)
		if traced {
			runtime.ReadMemStats(&before)
		}
		t0 := time.Now()
		changed, err := s.e.maint.Apply(muts)
		took := time.Since(t0)
		if traced {
			runtime.ReadMemStats(&after)
			m.allocs += after.Mallocs - before.Mallocs
			b.tr.add(b.tr.ids(1), 0, "dynamic.apply", t0, t0.Add(took))
		}
		if !b.op(err == nil && changed == len(batch), "stream: batch %d: %d of %d applied, error %v", s.batches, changed, len(batch), err) {
			continue
		}
		s.edges.apply(batch)
		s.batches++
		m.mutations += len(batch)
		m.applyUS = append(m.applyUS, float64(took)/float64(time.Microsecond))
		if s.batches%resultEvery == 0 {
			t0 = time.Now()
			s.e.maint.Result()
			m.resultMS = append(m.resultMS, ms(time.Since(t0)))
		}
	}
	m.elapsed += time.Since(start)
	return nil
}

func (s *streamStage) finish() error {
	b, m := s.b, &s.m[0]
	b.setE2E("stream_mutations_per_s", "1/s", frac(float64(m.mutations), m.elapsed.Seconds()))
	b.setE2E("stream_result_ms", "ms", median(m.resultMS))
	if b.tr != nil {
		m = &s.m[1]
		b.setLayer("dynamic.apply_us", "us", median(m.applyUS))
		b.setLayer("stream.allocs_per_batch", "count", frac(float64(m.allocs), float64(len(m.applyUS))))
	}

	g, err := s.edges.csr()
	if err != nil {
		return fmt.Errorf("replaying the stream batches: %w", err)
	}
	want, err := index.Build(g, b.nproc).Query(defaultMu, defaultEps)
	if err != nil {
		return err
	}
	err = sameResult(oracle{b.cfg.corrupt}.result(want), s.e.maint.Result())
	b.op(err == nil, "stream: final clustering: %v", err)
	return nil
}
