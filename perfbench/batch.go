package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"anyscan/internal/cluster"
	"anyscan/internal/core"
	"anyscan/internal/eval"
	"anyscan/internal/graph"
	"anyscan/internal/index"
)

// batchStage computes from scratch on the batch graph, cycling through
// four operations: anySCAN at all cores, anySCAN at one thread, the exact
// index build and the approximate index build. The oracle is an exact index
// built outside the timed path; anySCAN, an independent algorithm, must
// agree with it.
type batchStage struct {
	b    *bench
	g    *graph.CSR
	x    *index.Index    // the oracle index
	want *cluster.Result // its clustering at (defaultMu, defaultEps)
	m    [2]batchSamples // untraced, traced
}

// batchSamples is what the passes of one kind measured. Untraced and traced
// passes each keep their own cycle of operations and their own time.
type batchSamples struct {
	ops int // operations run so far; the next is ops % 4
	// The time so far: granted by measure calls, and spent. An operation
	// that overruns its turn shortens the next turn.
	granted, spent time.Duration

	cluster, cluster1t, build, approx []float64
	steps                             [4][]float64
	coreSims, unions, imbalance       []float64
	indexSims, sigmaPerS              []float64
	sketched, approxExact, ari        []float64
	allocs, bytes                     []float64
}

// measure runs operations, at least one, until the stage has spent the time
// granted to it so far, continuing the cycle where the previous call left
// it.
func (s *batchStage) measure(d time.Duration, traced bool) error {
	if s.x == nil {
		s.x = index.Build(s.g, s.b.nproc)
		want, err := s.x.Query(defaultMu, defaultEps)
		if err != nil {
			return err
		}
		s.want = want
	}
	m := &s.m[btoi(traced)]
	m.granted += d
	for first := true; first || m.spent < m.granted; first = false {
		start := time.Now()
		if err := s.runOp(m, traced); err != nil {
			return err
		}
		m.spent += time.Since(start)
	}
	return nil
}

func (s *batchStage) runOp(m *batchSamples, traced bool) error {
	b, g, n := s.b, s.g, m.ops
	want := oracle{b.cfg.corrupt}.result(s.want)
	m.ops++
	// timed runs f after a collection, so every operation starts from the
	// same heap; in a traced run it also counts allocations.
	timed := func(name string, f func()) time.Duration {
		runtime.GC()
		var before, after runtime.MemStats
		if traced {
			runtime.ReadMemStats(&before)
		}
		start := time.Now()
		f()
		end := time.Now()
		if traced {
			runtime.ReadMemStats(&after)
			m.allocs = append(m.allocs, float64(after.Mallocs-before.Mallocs))
			m.bytes = append(m.bytes, float64(after.TotalAlloc-before.TotalAlloc))
			b.tr.add(b.tr.ids(1), 0, name, start, end)
		}
		return end.Sub(start)
	}

	switch n % 4 {
	case 0, 1:
		threads := b.nproc
		if n%4 == 1 {
			threads = 1
		}
		opt := core.DefaultOptions()
		opt.Mu, opt.Eps, opt.Threads = defaultMu, defaultEps, threads
		var (
			c   *core.Clusterer
			res *cluster.Result
			err error
		)
		d := timed("core.anyscan", func() {
			if c, err = core.New(g, opt); err == nil {
				res, err = c.Run(context.Background())
			}
		})
		if err != nil {
			return err
		}
		cm := c.Metrics()
		if threads == 1 {
			m.cluster1t = append(m.cluster1t, d.Seconds())
			b.counter("core.sim_evals_1t", float64(cm.Sim.Sims))
		} else {
			m.cluster = append(m.cluster, d.Seconds())
			pd := c.PhaseDurations()
			for p := core.PhaseSummarize; p < core.PhaseDone; p++ {
				m.steps[p] = append(m.steps[p], pd[p].Seconds())
			}
			m.coreSims = append(m.coreSims, float64(cm.Sim.Sims))
			m.unions = append(m.unions, float64(cm.Unions()))
			m.imbalance = append(m.imbalance, cm.LoadImbalance())
			b.counter("core.sim_evals", float64(cm.Sim.Sims))
		}
		err = sameLabels(want, res, s.x, defaultEps)
		b.op(err == nil, "batch: operation %d: anySCAN at %d threads: %v", n, threads, err)
	case 2:
		var x *index.Index
		d := timed("index.build", func() { x = index.Build(g, b.nproc) })
		m.build = append(m.build, d.Seconds())
		m.indexSims = append(m.indexSims, float64(x.SimEvals()))
		m.sigmaPerS = append(m.sigmaPerS, frac(float64(x.SimEvals()), d.Seconds()))
		b.counter("index.sim_evals", float64(x.SimEvals()))
		// The σ slice is the whole state of an exact index: the sorted
		// neighbour orders and core orders are derived from it.
		var err error
		if !slices.Equal(x.ArcSigmas(), s.x.ArcSigmas()) {
			err = fmt.Errorf("σ differs from the oracle index")
		} else {
			var got *cluster.Result
			if got, err = x.Query(defaultMu, defaultEps); err == nil {
				err = sameResult(want, got)
			}
		}
		b.op(err == nil, "batch: operation %d: exact index: %v", n, err)
	case 3:
		var (
			x   *index.Index
			err error
		)
		d := timed("index.build_approx", func() { x, err = index.BuildApprox(g, b.nproc, index.DefaultApproxDelta) })
		if err != nil {
			return err
		}
		m.approx = append(m.approx, d.Seconds())
		st := x.Approx()
		exact := st.BuildExact
		if st.ExactFallback {
			exact = g.NumEdges() // the whole build ran the exact σ pass
		}
		m.sketched = append(m.sketched, frac(float64(st.Sketched), float64(st.Sketched+exact)))
		m.approxExact = append(m.approxExact, float64(exact))
		b.counter("index.approx_sketched_arcs", float64(st.Sketched))
		got, err := x.Query(defaultMu, defaultEps)
		if err != nil {
			return err
		}
		a := eval.ARI(want, got)
		m.ari = append(m.ari, a)
		floor := oracle{b.cfg.corrupt}.minARI()
		b.op(a >= floor, "batch: operation %d: approximate index ARI %.4f below %.2f", n, a, floor)
	}
	return nil
}

func (s *batchStage) finish() error {
	b, m := s.b, &s.m[0]
	b.setE2E("cluster_s", "s", median(m.cluster))
	b.setE2E("cluster_1t_s", "s", median(m.cluster1t))
	b.setE2E("build_s", "s", median(m.build))
	b.setE2E("approx_build_s", "s", median(m.approx))
	if b.tr == nil {
		return nil
	}
	m = &s.m[1]
	for p, name := range []string{"core.step1_s", "core.step2_s", "core.step3_s", "core.step4_s"} {
		b.setLayer(name, "s", median(m.steps[p]))
	}
	b.setLayer("core.sim_evals", "count", median(m.coreSims))
	b.setLayer("unionfind.unions", "count", median(m.unions))
	b.setLayer("par.load_imbalance", "ratio", median(m.imbalance))
	b.setLayer("index.sim_evals", "count", median(m.indexSims))
	b.setLayer("simeval.sigma_per_s", "1/s", median(m.sigmaPerS))
	b.setLayer("simeval.sketched_frac", "ratio", median(m.sketched))
	b.setLayer("index.approx_exact_arcs", "count", median(m.approxExact))
	b.setLayer("eval.approx_ari", "ratio", slices.Min(append(m.ari, s.m[0].ari...)))
	b.setLayer("batch.allocs_per_op", "count", mean(m.allocs))
	b.setLayer("batch.bytes_per_op", "bytes", mean(m.bytes))
	return nil
}

func btoi(v bool) int {
	if v {
		return 1
	}
	return 0
}
