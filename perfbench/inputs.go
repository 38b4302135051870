package main

import (
	"fmt"
	"math/rand"

	"anyscan"
	"anyscan/internal/dynamic"
	"anyscan/internal/graph"
	"anyscan/internal/live"
	"anyscan/internal/server"
)

// workload is one input regime. Every workload runs the same four stages
// (batch, explore, live, stream); they differ in the edge weights of the
// generated graphs and mutations.
type workload struct {
	name    string
	weights anyscan.WeightConfig
}

var workloads = []workload{
	// Unit weights: σ takes the unit-weight kernels (bitset above 512
	// neighbours) and the approximate build estimates σ from MinHash
	// sketches.
	{name: "unit"},
	// Uniform weights in [0.5, 1.5]: σ takes the weighted merge joins and
	// the approximate build falls back to the exact σ pass, so a change to
	// the sketch path should not move this workload.
	{name: "weighted", weights: anyscan.WeightConfig{Mode: anyscan.WeightUniform, Min: 0.5, Max: 1.5}},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want unit or weighted)", name)
}

// Query parameters shared by every stage's oracle and by the stream
// Maintainer, which is fixed to one (μ, ε): the paper's defaults.
const (
	defaultMu  = 5
	defaultEps = 0.5
	// batchSize is the number of mutations per live and stream batch.
	batchSize = 8
)

// subSeed derives an independent generator seed for one input from the run
// seed, so each input changes with --seed without sharing a random stream.
func subSeed(seed int64, stream int64) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(stream)*0xBF58476D1CE4E5B9
	z ^= z >> 31
	z *= 0x94D049BB133111EB
	z ^= z >> 29
	return int64(z >> 1)
}

func scaled(n int, scale float64) int {
	if v := int(float64(n) * scale); v > 64 {
		return v
	}
	return 64
}

// batchGraph is the skewed LFR graph of the batch stage: n≈16k, d̄≈38, with
// a degree tail capped at 1024 so the largest neighbourhoods cross the σ
// kernel's 512-neighbour bitset threshold.
func batchGraph(seed int64, scale float64, wc anyscan.WeightConfig) (*graph.CSR, error) {
	cfg := anyscan.DefaultLFR(scaled(16384, scale), 38, subSeed(seed, 1))
	cfg.MaxDegree = 1024
	cfg.Mixing, cfg.MixingJitter = 0.3, 0.2
	cfg.MinCommunity, cfg.MaxCommunity = 30, 90
	cfg.Weights = wc
	g, _, err := anyscan.GenerateLFR(cfg)
	if err != nil {
		return nil, fmt.Errorf("generating the batch graph: %w", err)
	}
	return g, nil
}

// serveGraph is the GR03L-like LFR graph of the explore, live and stream
// stages: n≈32k, d̄≈20, sparse communities diluted by heavy mixing.
func serveGraph(seed int64, scale float64, wc anyscan.WeightConfig) (*graph.CSR, error) {
	cfg := anyscan.DefaultLFR(scaled(32768, scale), 20, subSeed(seed, 2))
	cfg.MaxDegree = 140
	cfg.Mixing, cfg.MixingJitter = 0.55, 0.45
	cfg.MinCommunity, cfg.MaxCommunity = 14, 44
	cfg.Weights = wc
	g, _, err := anyscan.GenerateLFR(cfg)
	if err != nil {
		return nil, fmt.Errorf("generating the serve graph: %w", err)
	}
	return g, nil
}

// mutation is one edge insertion or deletion of a live or stream batch.
type mutation struct {
	add  bool
	u, v int32
	w    float32
}

func edgeKey(u, v int32) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(uint32(v))
}

// edgeSet mirrors a mutable graph's edges on the benchmark side. It draws
// batches that keep |E| steady — half insert a random absent pair, half
// delete a random present edge — and rebuilds the graph for the oracles.
type edgeSet struct {
	n     int32
	edges [][2]int32
	w     []float32
	pos   map[uint64]int
	wc    anyscan.WeightConfig
}

func newEdgeSet(g *graph.CSR, wc anyscan.WeightConfig) *edgeSet {
	s := &edgeSet{n: int32(g.NumVertices()), pos: make(map[uint64]int, g.NumEdges()), wc: wc}
	for u := int32(0); u < s.n; u++ {
		nbrs, ws := g.Neighbors(u)
		for i, v := range nbrs {
			if u < v {
				s.insert(u, v, ws[i])
			}
		}
	}
	return s
}

func (s *edgeSet) insert(u, v int32, w float32) {
	s.pos[edgeKey(u, v)] = len(s.edges)
	s.edges = append(s.edges, [2]int32{u, v})
	s.w = append(s.w, w)
}

func (s *edgeSet) remove(u, v int32) {
	k := edgeKey(u, v)
	i, ok := s.pos[k]
	if !ok {
		return
	}
	last := len(s.edges) - 1
	s.edges[i], s.w[i] = s.edges[last], s.w[last]
	s.pos[edgeKey(s.edges[i][0], s.edges[i][1])] = i
	s.edges, s.w = s.edges[:last], s.w[:last]
	delete(s.pos, k)
}

func (s *edgeSet) weight(rng *rand.Rand) float32 {
	if s.wc.Mode != anyscan.WeightUniform {
		return 1
	}
	return s.wc.Min + rng.Float32()*(s.wc.Max-s.wc.Min)
}

// batch draws the next batch of size mutations without applying it. No two
// mutations of a batch share an edge, so every one of them is effective.
func (s *edgeSet) batch(rng *rand.Rand, size int) []mutation {
	out := make([]mutation, 0, size)
	used := make(map[uint64]bool, size)
	for len(out) < size/2 {
		u, v := rng.Int31n(s.n), rng.Int31n(s.n)
		k := edgeKey(u, v)
		if _, present := s.pos[k]; u == v || present || used[k] {
			continue
		}
		used[k] = true
		out = append(out, mutation{add: true, u: u, v: v, w: s.weight(rng)})
	}
	for len(out) < size && len(used) < len(s.edges) {
		e := s.edges[rng.Intn(len(s.edges))]
		k := edgeKey(e[0], e[1])
		if used[k] {
			continue
		}
		used[k] = true
		out = append(out, mutation{u: e[0], v: e[1]})
	}
	return out
}

func (s *edgeSet) apply(batch []mutation) {
	for _, m := range batch {
		if m.add {
			s.insert(m.u, m.v, m.w)
		} else {
			s.remove(m.u, m.v)
		}
	}
}

// csr rebuilds the current graph.
func (s *edgeSet) csr() (*graph.CSR, error) {
	var b graph.Builder
	b.SetNumVertices(int(s.n))
	for i, e := range s.edges {
		b.AddEdge(e[0], e[1], s.w[i])
	}
	return b.Build()
}

func wireBatch(batch []mutation) server.MutateRequest {
	req := server.MutateRequest{Mutations: make([]server.MutationSpec, len(batch))}
	for i, m := range batch {
		op := "delete"
		if m.add {
			op = "add"
		}
		req.Mutations[i] = server.MutationSpec{Op: op, U: m.u, V: m.v, W: m.w}
	}
	return req
}

func liveBatch(batch []mutation) []live.Mutation {
	out := make([]live.Mutation, len(batch))
	for i, m := range batch {
		op := live.OpDelete
		if m.add {
			op = live.OpAdd
		}
		out[i] = live.Mutation{Op: op, U: m.u, V: m.v, W: m.w}
	}
	return out
}

func dynamicBatch(batch []mutation) []dynamic.Mutation {
	out := make([]dynamic.Mutation, len(batch))
	for i, m := range batch {
		op := dynamic.OpDelete
		if m.add {
			op = dynamic.OpAdd
		}
		out[i] = dynamic.Mutation{Op: op, U: m.u, V: m.v, W: m.w}
	}
	return out
}
