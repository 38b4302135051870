package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"anyscan/internal/index"
	"anyscan/internal/local"
	"anyscan/internal/server"
	"anyscan/internal/sweep"
)

// Request kinds of the explore mix.
const (
	kindLocal   = iota // GET /v1/local, 60%
	kindQuery          // single-ε /v1/query, 20%
	kindAssign         // single-ε /v1/query with assignments=1, 10%
	kindProfile        // /v1/query with a 5-value ε list, 10%
)

type request struct {
	kind int
	path string
	seed int32
	mu   int
	eps  []float64 // one value, or the profile's list
}

func (r request) isQuery() bool { return r.kind != kindLocal }

// randEps draws ε from [0.30, 0.70] in steps of 0.01.
func randEps(rng *rand.Rand) float64 { return float64(30+rng.Intn(41)) / 100 }

// mixBlock is the request mix: every block of ten consecutive requests of
// the script holds these kinds, shuffled, so that each pass, however short,
// sends the same mix whatever the seed.
var mixBlock = [10]int{kindLocal, kindLocal, kindLocal, kindLocal, kindLocal, kindLocal, kindQuery, kindQuery, kindAssign, kindProfile}

// exploreScript draws the seeded request mix. Clients walk it in order,
// wrapping around if they reach its end.
func exploreScript(seed int64, n int32, size int) []request {
	rng := rand.New(rand.NewSource(subSeed(seed, 5)))
	out := make([]request, size)
	kinds := mixBlock
	for i := range out {
		if i%len(kinds) == 0 {
			rng.Shuffle(len(kinds), func(a, b int) { kinds[a], kinds[b] = kinds[b], kinds[a] })
		}
		r := request{kind: kinds[i%len(kinds)], mu: minMu + rng.Intn(maxMu-minMu+1)}
		switch r.kind {
		case kindLocal:
			r.seed, r.eps = rng.Int31n(n), []float64{randEps(rng)}
			r.path = localPath(exploreGraph, r.seed, r.mu, r.eps[0])
		case kindQuery, kindAssign:
			r.eps = []float64{randEps(rng)}
			r.path = queryPath(exploreGraph, r.mu, r.eps[0], r.kind == kindAssign)
		case kindProfile:
			for len(r.eps) < 5 {
				if v := randEps(rng); !slices.Contains(r.eps, v) {
					r.eps = append(r.eps, v)
				}
			}
			sort.Float64s(r.eps)
			r.path = profilePath(exploreGraph, r.mu, r.eps)
		}
		out[i] = r
	}
	return out
}

// reply is the part of a /v1/query or /v1/local answer the benchmark reads;
// assignments are skipped.
type reply struct {
	Clusters int                 `json:"clusters"`
	Counts   server.RoleCounts   `json:"counts"`
	Points   []server.SweepPoint `json:"points"`
	QueryMS  float64             `json:"query_ms"`
	Epoch    int64               `json:"epoch"`
	Role     string              `json:"role"`
	Touched  int                 `json:"touched"`
	Members  []int32             `json:"members"`
}

// outcome is one request of a closed-loop client.
type outcome struct {
	req     int  // index into the script
	sampled bool // checked by the oracle
	spanID  uint64
	status  int
	err     error
	rt      time.Duration
	bytes   int
	reply   *reply // decoded when sampled for the oracle or traced
}

// sampleEvery picks the requests whose answers the oracle checks: one in
// sampleEvery of the script's first pass.
const sampleEvery = 16

// scriptLen is the explore script's length: more requests than a run sends
// at a few hundred per second, so no request repeats.
const scriptLen = 1 << 14

// explorePass runs nproc closed-loop clients over the script for window,
// starting at position from, and returns every outcome.
func (b *bench) explorePass(e *env, script []request, from int64, window time.Duration, tr *tracer) []outcome {
	var (
		next atomic.Int64
		mu   sync.Mutex
		all  []outcome
		wg   sync.WaitGroup
	)
	next.Store(from)
	start := time.Now()
	deadline := start.Add(window)
	for c := 0; c < b.nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var (
				buf  bytes.Buffer
				mine []outcome
			)
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				r := script[i%len(script)]
				o := outcome{req: i % len(script), sampled: i < len(script) && i%sampleEvery == 0}
				if tr != nil {
					o.spanID = tr.ids(2)
				}
				t0 := time.Now()
				o.status, o.err = e.call(http.MethodGet, r.path, nil, o.spanID, &buf)
				t1 := time.Now()
				o.rt, o.bytes = t1.Sub(t0), buf.Len()
				if o.err == nil && o.status == http.StatusOK && (tr != nil || o.sampled) {
					o.reply = new(reply)
					if err := json.Unmarshal(buf.Bytes(), o.reply); err != nil {
						o.err = fmt.Errorf("decoding the answer: %w", err)
					}
				}
				if tr != nil {
					tr.add(o.spanID, 0, "client.request", t0, t1)
					if o.reply != nil {
						name := [...]string{kindLocal: "local.query", kindQuery: "index.query", kindAssign: "index.query", kindProfile: "sweep.profile"}[r.kind]
						d := time.Duration(o.reply.QueryMS * float64(time.Millisecond))
						tr.add(tr.ids(1), o.spanID+1, name, t1.Add(-d), t1)
					}
				}
				mine = append(mine, o)
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return all
}

// exploreStage sends the read-only mix to the warm server from nproc
// closed-loop clients. Successive untraced passes continue along the
// script; a traced pass starts where the next untraced pass will, so the
// traced passes send about the same requests as the untraced ones.
type exploreStage struct {
	b      *bench
	e      *env
	script []request
	next   int64            // script position the next untraced pass starts at
	passes [2]explorePasses // untraced, traced
}

type explorePasses struct {
	outs    []outcome
	ok      int           // successful requests
	elapsed time.Duration // summed over the passes
	ctr     serverCounters
}

func (p *explorePasses) rps() float64 { return frac(float64(p.ok), p.elapsed.Seconds()) }

// serverCounters are /v1/metrics deltas.
type serverCounters struct{ hits, misses, queued, shed float64 }

var counterNames = []string{
	"anyscand_index_cache_hits_total",
	"anyscand_index_cache_misses_total",
	"anyscand_admission_queued_total",
	"anyscand_admission_shed_total",
}

func (s *exploreStage) measure(d time.Duration, traced bool) error {
	var tr *tracer
	if traced {
		tr = s.b.tr
		defer s.b.watchRuntime()()
		s.e.front.tr.Store(tr)
		defer s.e.front.tr.Store(nil)
	}
	before, err := s.e.scrape(counterNames...)
	if err != nil {
		return err
	}
	start := time.Now()
	outs := s.b.explorePass(s.e, s.script, s.next, d, tr)
	elapsed := time.Since(start)
	after, err := s.e.scrape(counterNames...)
	if err != nil {
		return err
	}
	if !traced {
		s.next += int64(len(outs))
	}
	p := &s.passes[btoi(traced)]
	p.outs = append(p.outs, outs...)
	p.elapsed += elapsed
	for _, o := range outs {
		if o.err == nil && o.status == http.StatusOK {
			p.ok++
		}
	}
	delta := func(i int) float64 { return after[counterNames[i]] - before[counterNames[i]] }
	p.ctr.hits += delta(0)
	p.ctr.misses += delta(1)
	p.ctr.queued += delta(2)
	p.ctr.shed += delta(3)
	return nil
}

func (s *exploreStage) finish() error {
	b := s.b
	x := index.Build(s.e.serveG, b.nproc)
	untraced := &s.passes[0]
	b.checkExplore(x, s.script, untraced.outs, untraced.ctr)
	b.exploreMetrics(s.script, untraced.outs, untraced.rps())
	if b.tr == nil {
		return nil
	}
	traced := &s.passes[1]
	b.checkExplore(x, s.script, traced.outs, traced.ctr)
	rps := untraced.rps()
	b.setLayer("trace.explore_overhead_frac", "ratio", frac(rps-traced.rps(), rps))
	b.setLayer("server.cache_hit_frac", "ratio", frac(traced.ctr.hits, traced.ctr.hits+traced.ctr.misses))
	b.setLayer("server.admission_queued", "count", traced.ctr.queued)
	b.setLayer("server.admission_shed", "count", traced.ctr.shed)
	b.exploreLayers(x, s.script, traced.outs)
	return nil
}

// exploreMetrics sets the end-to-end metrics of an untraced pass.
func (b *bench) exploreMetrics(script []request, outs []outcome, rps float64) {
	var query, loc, bytes, touched []float64
	for _, o := range outs {
		if o.err != nil || o.status != http.StatusOK {
			continue
		}
		bytes = append(bytes, float64(o.bytes))
		if script[o.req].isQuery() {
			query = append(query, ms(o.rt))
		} else {
			loc = append(loc, ms(o.rt))
			if o.reply != nil {
				touched = append(touched, float64(o.reply.Touched))
			}
		}
	}
	b.counter("explore.response_bytes_mean", mean(bytes))
	b.counter("local.touched_mean", mean(touched))
	b.setE2E("explore_rps", "1/s", rps)
	b.setE2E("query_p50_ms", "ms", median(query))
	b.setE2E("query_p99_ms", "ms", quantile(query, 0.99))
	b.setE2E("local_p50_ms", "ms", median(loc))
	b.setLayer("local.p99_ms", "ms", quantile(loc, 0.99))
}

// checkExplore counts every request as an operation. A request fails on a
// transport error or a non-200 status; a sampled one also fails when its
// answer differs from the in-process index x. One more operation fails if
// the index was rebuilt while the requests ran.
func (b *bench) checkExplore(x *index.Index, script []request, outs []outcome, ctr serverCounters) {
	o := oracle{b.cfg.corrupt}
	b.op(ctr.misses == 0, "explore: the index cache missed %v times", ctr.misses)
	explorers := map[int]*sweep.Explorer{}
	for _, out := range outs {
		r := script[out.req]
		if out.err != nil || out.status != http.StatusOK {
			b.op(false, "explore: %s: status %d, error %v", r.path, out.status, out.err)
			continue
		}
		if !out.sampled {
			b.op(true, "")
			continue
		}
		err := b.sameAnswer(o, x, explorers, r, out.reply)
		b.op(err == nil, "explore: %s: %v", r.path, err)
	}
}

// sameAnswer compares one answer with the in-process index.
func (b *bench) sameAnswer(o oracle, x *index.Index, explorers map[int]*sweep.Explorer, r request, got *reply) error {
	switch r.kind {
	case kindLocal:
		want, err := local.Query(x, r.seed, r.mu, r.eps[0])
		if err != nil {
			return err
		}
		if got.Role != want.Role.String() || !slices.Equal(got.Members, o.members(want.Members)) {
			return fmt.Errorf("role %s with %d members, want %s with %d", got.Role, len(got.Members), want.Role, len(want.Members))
		}
	case kindQuery, kindAssign:
		want, err := x.Query(r.mu, r.eps[0])
		if err != nil {
			return err
		}
		if clusters, counts := o.clusters(want.NumClusters), roleCounts(want.RoleCounts()); got.Clusters != clusters || got.Counts != counts {
			return fmt.Errorf("%d clusters %+v, want %d %+v", got.Clusters, got.Counts, clusters, counts)
		}
	case kindProfile:
		ex, ok := explorers[r.mu]
		if !ok {
			var err error
			if ex, err = sweep.FromIndex(x, r.mu); err != nil {
				return err
			}
			explorers[r.mu] = ex
		}
		want := ex.SweepProfile(r.eps)
		if len(got.Points) != len(want) {
			return fmt.Errorf("%d points, want %d", len(got.Points), len(want))
		}
		for i, p := range want {
			clusters := o.clusters(p.Clusters)
			if got.Points[i].Clusters != clusters || got.Points[i].Counts != roleCounts(p.Counts) {
				return fmt.Errorf("ε=%g: %d clusters, want %d", p.Eps, got.Points[i].Clusters, clusters)
			}
		}
	}
	return nil
}

// exploreLayers derives the per-layer metrics of the traced pass and
// replays a sample of its requests in-process.
func (b *bench) exploreLayers(x *index.Index, script []request, outs []outcome) {
	handler := b.tr.handlerSpans()
	var (
		queryOver, localOver, handle, transport, queryMS, assignBytes []float64
		touched                                                       []float64
		replayQuery, replayProfile, replayLocal                       []float64
		replays                                                       [4]int
	)
	explorers := map[int]*sweep.Explorer{}
	for _, out := range outs {
		if out.reply == nil {
			continue
		}
		r := script[out.req]
		rt := ms(out.rt)
		if h, ok := handler[out.spanID]; ok {
			handle = append(handle, ms(h))
			transport = append(transport, rt-ms(h))
		}
		switch r.kind {
		case kindLocal:
			localOver = append(localOver, rt-out.reply.QueryMS)
			touched = append(touched, float64(out.reply.Touched))
		default:
			queryOver = append(queryOver, rt-out.reply.QueryMS)
		}
		if r.kind == kindQuery || r.kind == kindAssign {
			queryMS = append(queryMS, out.reply.QueryMS)
		}
		if r.kind == kindAssign {
			assignBytes = append(assignBytes, float64(out.bytes))
		}

		// Replay up to 200 requests of each kind in-process.
		if replays[r.kind] >= 200 {
			continue
		}
		replays[r.kind]++
		switch r.kind {
		case kindLocal:
			d := b.tr.time("replay.local.query", func() { _, _ = local.Query(x, r.seed, r.mu, r.eps[0]) })
			replayLocal = append(replayLocal, float64(d)/float64(time.Microsecond))
		case kindQuery, kindAssign:
			d := b.tr.time("replay.index.query", func() { _, _ = x.Query(r.mu, r.eps[0]) })
			replayQuery = append(replayQuery, ms(d))
		case kindProfile:
			ex, ok := explorers[r.mu]
			if !ok {
				ex, _ = sweep.FromIndex(x, r.mu) // μ is in range, so this cannot fail
				explorers[r.mu] = ex
			}
			d := b.tr.time("replay.sweep.profile", func() { ex.SweepProfile(r.eps) })
			replayProfile = append(replayProfile, ms(d))
		}
	}
	b.setLayer("server.query_overhead_ms", "ms", median(queryOver))
	b.setLayer("server.local_overhead_ms", "ms", median(localOver))
	b.setLayer("server.handler_ms", "ms", median(handle))
	b.setLayer("server.transport_ms", "ms", median(transport))
	b.setLayer("server.assign_bytes", "bytes", mean(assignBytes))
	b.setLayer("index.query_ms", "ms", median(queryMS))
	b.setLayer("index.replay_query_ms", "ms", median(replayQuery))
	b.setLayer("sweep.profile_ms", "ms", median(replayProfile))
	b.setLayer("local.query_us", "us", median(replayLocal))
	b.setLayer("local.touched", "count", mean(touched))
	b.setLayer("index.bytes", "bytes", float64(x.Bytes()))
}
