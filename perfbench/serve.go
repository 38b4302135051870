package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"anyscan/internal/dynamic"
	"anyscan/internal/graph"
	"anyscan/internal/server"
)

// Registry names of the served graph. The explore stage reads one copy and
// the live stage mutates the other, so explore always measures the
// immutable index path, whichever stage ran before it.
const (
	exploreGraph = "explore"
	liveGraph    = "live"
)

// spanHeader carries a traced request's span ID to the server side.
const spanHeader = "X-Perfbench-Span"

// env is what set-up leaves for the stages: the generated graphs, an
// in-process anyscand with the served graph loaded and its index warm, a
// keep-alive HTTP client, and the stream stage's Maintainer.
type env struct {
	batchG, serveG *graph.CSR
	path           string // the served graph's file
	srv            *server.Server
	front          *front
	hs             *httptest.Server
	client         *http.Client
	maint          *dynamic.Maintainer
}

// front wraps the server's public ServeHTTP with a span while a tracer is
// set; otherwise it adds one atomic load per request.
type front struct {
	srv *server.Server
	tr  atomic.Pointer[tracer]
}

func (f *front) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t := f.tr.Load()
	if t == nil {
		f.srv.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	f.srv.ServeHTTP(w, r)
	end := time.Now()
	if parent, err := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64); err == nil {
		t.add(parent+1, parent, "server.handler", start, end)
	}
}

func (e *env) close() {
	e.hs.Close()
	e.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = e.srv.Drain(ctx) // no jobs are ever submitted; nothing to drain
	os.Remove(e.path)
}

// call sends one request and reads the whole response into buf. A non-zero
// span ID is sent along so the handler span can name its parent.
func (e *env) call(method, path string, body []byte, spanID uint64, buf *bytes.Buffer) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, e.hs.URL+path, rd)
	if err != nil {
		return 0, err
	}
	if spanID != 0 {
		req.Header.Set(spanHeader, strconv.FormatUint(spanID, 10))
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// getJSON sends a GET that must answer 200 and decodes the answer into v.
func (e *env) getJSON(path string, v any) error {
	var buf bytes.Buffer
	status, err := e.call(http.MethodGet, path, nil, 0, &buf)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, status, strings.TrimSpace(buf.String()))
	}
	return json.Unmarshal(buf.Bytes(), v)
}

// setupSample is what one set-up measured; load and coldBuildMS cover both
// copies of the served graph.
type setupSample struct {
	total, load, dynBuild time.Duration
	coldBuildMS           float64
}

// setups is how many times the whole set-up runs in one run; setup_s is the
// median. The first set-up's env serves the stages. The others run between
// rounds and are closed at once, so that the set-ups, like the stages'
// turns, spread over the whole run and sample the host's slower phases
// alike.
const setups = 3

// setup runs one set-up, records what it measured and returns its env.
func (b *bench) setup() (*env, error) {
	runtime.GC()
	e, s, err := b.setupOnce()
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	b.setupRuns = append(b.setupRuns, s)
	return e, nil
}

// setupMetrics sets the set-up metrics, medians over the set-ups.
func (b *bench) setupMetrics() {
	var total, load, coldBuild, dynBuild []float64
	for _, s := range b.setupRuns {
		total = append(total, s.total.Seconds())
		load = append(load, s.load.Seconds())
		coldBuild = append(coldBuild, s.coldBuildMS)
		dynBuild = append(dynBuild, s.dynBuild.Seconds())
	}
	b.setE2E("setup_s", "s", median(total))
	b.setLayer("graph.load_s", "s", median(load))
	b.setLayer("server.cold_build_ms", "ms", median(coldBuild))
	b.setLayer("dynamic.build_s", "s", median(dynBuild))
}

// setupOnce generates the graphs, starts a server, loads both copies of the
// served graph through POST /v1/graphs, builds each index with the first
// query, warms the lazily built per-μ state the stages use, and builds the
// Maintainer.
func (b *bench) setupOnce() (*env, setupSample, error) {
	var s setupSample
	wc := b.cfg.workload.weights
	start := time.Now()
	batchG, err := batchGraph(b.cfg.seed, b.cfg.scale, wc)
	if err != nil {
		return nil, s, err
	}
	serveG, err := serveGraph(b.cfg.seed, b.cfg.scale, wc)
	if err != nil {
		return nil, s, err
	}
	path, err := writeGraph(serveG, b.cfg.out)
	if err != nil {
		return nil, s, err
	}
	discard := slog.New(slog.NewTextHandler(io.Discard, nil))
	srv, err := server.New(server.Config{
		Logger:       discard,
		IndexThreads: b.nproc,
		Manager:      server.ManagerConfig{Workers: 1, Logger: discard},
	})
	if err != nil {
		os.Remove(path)
		return nil, s, err
	}
	f := &front{srv: srv}
	e := &env{
		batchG: batchG, serveG: serveG, path: path, srv: srv, front: f,
		hs: httptest.NewServer(f),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 2 * b.nproc,
			DisableCompression:  true,
		}},
	}
	fail := func(err error) (*env, setupSample, error) {
		e.close()
		return nil, s, err
	}

	for _, name := range []string{exploreGraph, liveGraph} {
		body, _ := json.Marshal(server.LoadGraphRequest{Name: name, GraphSource: server.GraphSource{Path: path}})
		var buf bytes.Buffer
		t := time.Now()
		status, err := e.call(http.MethodPost, "/v1/graphs", body, 0, &buf)
		s.load += time.Since(t)
		if err != nil {
			return fail(err)
		}
		if status != http.StatusOK {
			return fail(fmt.Errorf("POST /v1/graphs: status %d: %s", status, strings.TrimSpace(buf.String())))
		}
		var cold server.QueryResponse
		if err := e.getJSON(queryPath(name, defaultMu, defaultEps, false), &cold); err != nil {
			return fail(err)
		}
		s.coldBuildMS += cold.BuildMS
		for mu := minMu; mu <= maxMu; mu++ {
			var warm server.QueryResponse
			if err := e.getJSON(queryPath(name, mu, defaultEps, false), &warm); err != nil {
				return fail(err)
			}
			if name == liveGraph {
				continue // the live stage sends no profile queries
			}
			if err := e.getJSON(profilePath(name, mu, []float64{0.3, 0.4, 0.5, 0.6, 0.7}), &warm); err != nil {
				return fail(err)
			}
		}
	}
	t := time.Now()
	e.maint, err = dynamic.FromGraph(serveG, defaultMu, defaultEps)
	if err != nil {
		return fail(err)
	}
	e.maint.Result()
	s.dynBuild = time.Since(t)
	s.total = time.Since(start)
	return e, s, nil
}

// writeGraph saves g in the binary CSR format, which keeps vertex IDs.
func writeGraph(g *graph.CSR, dir string) (string, error) {
	f, err := os.CreateTemp(dir, "serve-*.bin")
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	err = g.WriteBinary(w)
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(f.Name())
		return "", fmt.Errorf("writing the served graph: %w", err)
	}
	return f.Name(), nil
}

// Range of μ the explore and live requests draw from.
const (
	minMu = 2
	maxMu = 9
)

func queryPath(graph string, mu int, eps float64, assignments bool) string {
	p := fmt.Sprintf("/v1/query?graph=%s&mu=%d&eps=%g", graph, mu, eps)
	if assignments {
		p += "&assignments=1"
	}
	return p
}

func profilePath(graph string, mu int, eps []float64) string {
	parts := make([]string, len(eps))
	for i, v := range eps {
		parts[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	return fmt.Sprintf("/v1/query?graph=%s&mu=%d&eps=%s", graph, mu, strings.Join(parts, ","))
}

func localPath(graph string, seed int32, mu int, eps float64) string {
	return fmt.Sprintf("/v1/local?graph=%s&seed=%d&mu=%d&eps=%g", graph, seed, mu, eps)
}

func withMinEpoch(path string, epoch int64) string {
	if epoch == 0 {
		return path // min_epoch is refused on a graph never written to
	}
	return path + "&min_epoch=" + strconv.FormatInt(epoch, 10)
}

// scrape reads the named counters from GET /v1/metrics.
func (e *env) scrape(names ...string) (map[string]float64, error) {
	var buf bytes.Buffer
	status, err := e.call(http.MethodGet, "/v1/metrics", nil, 0, &buf)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/metrics: status %d", status)
	}
	out := make(map[string]float64, len(names))
	for _, line := range strings.Split(buf.String(), "\n") {
		name, value, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		for _, want := range names {
			if name == want {
				v, err := strconv.ParseFloat(value, 64)
				if err != nil {
					return nil, fmt.Errorf("metric %s: %w", name, err)
				}
				out[name] = v
			}
		}
	}
	for _, want := range names {
		if _, ok := out[want]; !ok {
			return nil, fmt.Errorf("metric %s missing from /v1/metrics", want)
		}
	}
	return out, nil
}
