package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"anyscan/internal/cluster"
	"anyscan/internal/index"
	"anyscan/internal/live"
	"anyscan/internal/server"
)

// liveStage runs one writer posting batches and one reader asking for the
// writer's last acknowledged epoch. Afterwards the final state is checked
// against an index built on the benchmark's own replay of every
// acknowledged batch.
type liveStage struct {
	b              *bench
	e              *env
	edges          *edgeSet // mirror of the served graph
	batches        [][]mutation
	writer, reader *rand.Rand
	reads          int          // reads sent so far
	epoch          atomic.Int64 // last acknowledged epoch
	passes         [2]livePass  // untraced, traced
}

// livePass is what the passes of one kind observed.
type livePass struct {
	mutations int           // acknowledged
	elapsed   time.Duration // summed over the passes
	// Writer: per acknowledged batch.
	mutateRT, publishMS []float64
	sigma, noops        []float64
	// Reader: reads that carried min_epoch.
	freshQuery, freshLocal []float64 // round trips
	freshQueryMS           []float64 // server-reported query time
	freshSpans             []uint64  // traced passes: parallel to freshQueryMS
}

func newLiveStage(b *bench, e *env) *liveStage {
	return &liveStage{
		b: b, e: e,
		edges:  newEdgeSet(e.serveG, b.cfg.workload.weights),
		writer: rand.New(rand.NewSource(subSeed(b.cfg.seed, 3))),
		reader: rand.New(rand.NewSource(subSeed(b.cfg.seed, 4))),
	}
}

func (s *liveStage) measure(d time.Duration, traced bool) error {
	var tr *tracer
	if traced {
		tr = s.b.tr
		defer s.b.watchRuntime()()
		s.e.front.tr.Store(tr)
		defer s.e.front.tr.Store(nil)
	}
	s.pass(&s.passes[btoi(traced)], d, tr)
	return nil
}

func (s *liveStage) finish() error {
	b, p := s.b, &s.passes[0]
	rate := p.rate()
	b.setE2E("mutations_per_s", "1/s", rate)
	b.setE2E("mutate_p90_ms", "ms", quantile(p.mutateRT, 0.9))
	b.setE2E("fresh_query_p50_ms", "ms", median(p.freshQuery))
	b.setE2E("fresh_local_p50_ms", "ms", median(p.freshLocal))
	b.counter("live.sigma_recomputed_per_batch", mean(p.sigma))
	b.counter("live.noop_frac", frac(sum(p.noops), float64(p.mutations)))
	if b.tr != nil {
		s.layers(rate)
	}
	return s.check()
}

// pass runs the writer and the reader for window, adding to p.
func (s *liveStage) pass(p *livePass, window time.Duration, tr *tracer) {
	b, e, o := s.b, s.e, oracle{s.b.cfg.corrupt}
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(window)
	wg.Add(2)
	go func() {
		defer wg.Done()
		var buf bytes.Buffer
		for time.Now().Before(deadline) {
			batch := s.edges.batch(s.writer, batchSize)
			body, err := json.Marshal(wireBatch(batch))
			if err != nil {
				b.op(false, "live: encoding a batch: %v", err)
				continue
			}
			var id uint64
			if tr != nil {
				id = tr.ids(2)
			}
			t0 := time.Now()
			status, err := e.call(http.MethodPost, "/v1/graphs/"+liveGraph+"/edges", body, id, &buf)
			t1 := time.Now()
			var resp server.MutateResponse
			if err == nil && status == http.StatusOK {
				err = json.Unmarshal(buf.Bytes(), &resp)
			}
			if !b.op(err == nil && status == http.StatusOK, "live: mutate: status %d, error %v", status, err) {
				continue
			}
			s.edges.apply(batch)
			s.batches = append(s.batches, batch)
			s.epoch.Store(resp.Epoch)
			p.mutations += len(batch)
			p.mutateRT = append(p.mutateRT, ms(t1.Sub(t0)))
			p.publishMS = append(p.publishMS, resp.PublishMS)
			p.sigma = append(p.sigma, float64(resp.SigmaRecomputed))
			p.noops = append(p.noops, float64(resp.NoOps))
			if tr != nil {
				tr.add(id, 0, "client.mutate", t0, t1)
				d := time.Duration(resp.PublishMS * float64(time.Millisecond))
				tr.add(tr.ids(1), id+1, "live.publish", t1.Add(-d), t1)
			}
		}
	}()
	go func() {
		defer wg.Done()
		var buf bytes.Buffer
		n := int32(e.serveG.NumVertices())
		for time.Now().Before(deadline) {
			asked := s.epoch.Load()
			// Every fourth read is a /v1/query; the rest are /v1/local.
			s.reads++
			isLocal := s.reads%4 != 0
			var path string
			if mu, eps := minMu+s.reader.Intn(maxMu-minMu+1), randEps(s.reader); isLocal {
				path = localPath(liveGraph, s.reader.Int31n(n), mu, eps)
			} else {
				path = queryPath(liveGraph, mu, eps, false)
			}
			path = withMinEpoch(path, asked)
			var id uint64
			if tr != nil {
				id = tr.ids(2)
			}
			t0 := time.Now()
			status, err := e.call(http.MethodGet, path, nil, id, &buf)
			t1 := time.Now()
			var resp reply
			if err == nil && status == http.StatusOK {
				err = json.Unmarshal(buf.Bytes(), &resp)
			}
			if err == nil && status == http.StatusOK && resp.Epoch < o.minEpoch(asked) {
				err = fmt.Errorf("answered at epoch %d, asked for %d", resp.Epoch, asked)
			}
			if !b.op(err == nil && status == http.StatusOK, "live: %s: status %d, error %v", path, status, err) || asked == 0 {
				continue
			}
			if isLocal {
				p.freshLocal = append(p.freshLocal, ms(t1.Sub(t0)))
			} else {
				p.freshQuery = append(p.freshQuery, ms(t1.Sub(t0)))
			}
			p.freshQueryMS = append(p.freshQueryMS, resp.QueryMS)
			if tr != nil {
				name := "live.query"
				if isLocal {
					name = "live.local"
				}
				tr.add(id, 0, "client.fresh_read", t0, t1)
				d := time.Duration(resp.QueryMS * float64(time.Millisecond))
				tr.add(tr.ids(1), id+1, name, t1.Add(-d), t1)
				p.freshSpans = append(p.freshSpans, id)
			}
		}
	}()
	wg.Wait()
	p.elapsed += time.Since(start)
}

func (p *livePass) rate() float64 { return frac(float64(p.mutations), p.elapsed.Seconds()) }

// layers sets the per-layer metrics of the traced passes; untracedRate is
// the untraced passes' mutations per second.
func (s *liveStage) layers(untracedRate float64) {
	b, p := s.b, &s.passes[1]
	handler := b.tr.handlerSpans()
	var overhead, wait []float64
	for i := range p.mutateRT {
		overhead = append(overhead, p.mutateRT[i]-p.publishMS[i])
	}
	for i, id := range p.freshSpans {
		if h, ok := handler[id]; ok {
			wait = append(wait, ms(h)-p.freshQueryMS[i])
		}
	}
	rate := p.rate()
	b.setLayer("trace.live_overhead_frac", "ratio", frac(untracedRate-rate, untracedRate))
	b.setLayer("live.publish_ms", "ms", median(p.publishMS))
	b.setLayer("live.sigma_recomputed", "count", mean(p.sigma))
	b.setLayer("live.noop_frac", "ratio", frac(sum(p.noops), float64(p.mutations)))
	b.setLayer("server.mutate_overhead_ms", "ms", median(overhead))
	b.setLayer("live.fresh_query_ms", "ms", median(p.freshQueryMS))
	b.setLayer("live.fresh_wait_ms", "ms", median(wait))

	// Replay every acknowledged batch in-process on a fresh live graph.
	lg := live.FromIndex(index.Build(s.e.serveG, b.nproc))
	var apply []float64
	for _, batch := range s.batches {
		muts := liveBatch(batch)
		d := b.tr.time("replay.live.apply", func() { _, _, _ = lg.Apply(muts) })
		apply = append(apply, ms(d))
	}
	b.setLayer("live.apply_ms", "ms", median(apply))
}

// check asks for the final clustering with assignments and compares it
// with an index built from scratch on the replayed graph.
func (s *liveStage) check() error {
	b, o, epoch := s.b, oracle{s.b.cfg.corrupt}, s.epoch.Load()
	g, err := s.edges.csr()
	if err != nil {
		return fmt.Errorf("replaying the live batches: %w", err)
	}
	want, err := index.Build(g, b.nproc).Query(defaultMu, defaultEps)
	if err != nil {
		return err
	}
	var got struct {
		Clusters    int                 `json:"clusters"`
		Assignments *server.Assignments `json:"assignments"`
	}
	err = s.e.getJSON(withMinEpoch(queryPath(liveGraph, defaultMu, defaultEps, true), epoch), &got)
	if err == nil && got.Assignments == nil {
		err = fmt.Errorf("no assignments in the answer")
	}
	if err == nil {
		res := &cluster.Result{
			Labels:      got.Assignments.Labels,
			Roles:       make([]cluster.Role, len(got.Assignments.Roles)),
			NumClusters: got.Clusters,
		}
		for i, r := range got.Assignments.Roles {
			res.Roles[i] = cluster.Role(r)
		}
		err = sameResult(o.result(want), res)
	}
	b.op(err == nil, "live: final state at epoch %d: %v", epoch, err)
	return nil
}
