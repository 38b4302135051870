package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"anyscan/internal/cluster"
	"anyscan/internal/faultinject"
	"anyscan/internal/index"
	"anyscan/internal/local"
	"anyscan/internal/sweep"
)

// This file is anyscand's read path: GET /v1/query (a clustering or a
// profile) and GET /v1/local (a seed-centered community). Every read
// resolves its request once to a snapshot — the source it reads from plus
// how that source was obtained — and then answers from the snapshot through
// the one source interface that immutable indexes and live epochs share.
// Deadlines propagate through both steps, ?min_epoch= gives read-your-writes
// on mutated graphs, and capacity failures degrade to the last good index
// with the stale marker.

// source is what a read answers from: an immutable *index.Index (fresh or
// stale) or the *live.Epoch of a mutated graph.
type source interface {
	NumVertices() int
	Query(mu int, eps float64) (*cluster.Result, error)
	LocalView(eps float64) local.View
}

// snapshot is one request's resolved read state.
type snapshot struct {
	src     source
	idx     *index.Index // src when it is an immutable index; nil for live epochs
	entry   *indexEntry  // the fresh cache entry holding idx; nil when stale or live
	epoch   int64        // live epoch sequence number (0 for indexes)
	approx  float64      // accuracy dial the answer is computed at (0 = exact)
	hit     bool         // no index build was paid for this request
	buildMS float64      // index build time, when this request paid for it
	stale   bool         // src is the last good index, not the current one
}

// resolve picks the source a read answers from, in order:
//
//   - the graph's live epoch when it has been mutated, once the epoch is at
//     least minEpoch (read-your-writes);
//   - the cached immutable index at the requested accuracy dial, built on
//     first use; a minEpoch bound here is a 409, since no epoch chain exists
//     that could ever satisfy it;
//   - the stale store's last good index, when the fresh one is unavailable
//     for capacity reasons (shed or failed build, expired deadline). Read-
//     your-writes requests never get here: a stale answer would silently
//     violate the guarantee they asked for.
//
// On error it also returns the HTTP status to answer with.
func (s *Server) resolve(ctx context.Context, ge *GraphEntry, approx float64, minEpoch int64) (*snapshot, int, error) {
	if lg := s.idx.liveGraph(ge); lg != nil {
		if approx > 0 {
			// Live epochs carry exact σ (incremental maintenance would
			// invalidate sketch error bands batch by batch), so approx
			// requests on mutated graphs are answered exactly — a strictly
			// stronger guarantee than the client asked for.
			s.met.ApproxLiveExact.Add(1)
			s.log.Warn("approx read on live graph served exactly", "graph", ge.Name, "approx", approx)
		}
		// WaitEpoch parks without holding resources, so an abandoned waiter
		// never pins admission capacity while it sleeps.
		ep, err := lg.WaitEpoch(ctx, minEpoch)
		if err != nil {
			return nil, http.StatusServiceUnavailable, err
		}
		return &snapshot{src: ep, epoch: ep.Seq(), hit: true}, 0, nil
	}
	if minEpoch > 0 {
		return nil, http.StatusConflict,
			fmt.Errorf("graph %q has no live epochs; min_epoch requires a mutated graph", ge.Name)
	}
	e, hit, err := s.idx.acquire(ctx, ge, approx)
	if err == nil {
		snap := &snapshot{src: e.idx, idx: e.idx, entry: e, approx: effectiveApprox(e.idx), hit: hit}
		if !hit {
			snap.buildMS = e.buildMS
		}
		return snap, 0, nil
	}
	if degradable(err) {
		if st, ok := s.idx.staleFor(ge.Name, approx); ok {
			s.log.Warn("serving stale index", "graph", ge.Name, "cause", err.Error())
			return &snapshot{src: st.idx, idx: st.idx, approx: effectiveApprox(st.idx), hit: true, stale: true}, 0, nil
		}
	}
	return nil, http.StatusBadRequest, err
}

// effectiveApprox is the accuracy dial an answer from idx was actually
// computed at: the index's delta when the sketch path is in effect, 0 when
// the index is exact — including approximate builds that fell back to the
// exact similarity pass (non-unit edge weights).
func effectiveApprox(idx *index.Index) float64 {
	if a := idx.Approx(); a.Delta > 0 && !a.ExactFallback {
		return a.Delta
	}
	return 0
}

// degradable reports whether an error is a capacity condition that stale
// serving may paper over, as opposed to a caller mistake.
func degradable(err error) bool {
	var oe *OverloadError
	return errors.As(err, &oe) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, faultinject.ErrInjected)
}

// run executes one read's kernel against the snapshot. With admit set the
// work is metered through the admission semaphore at query weight first. It
// returns the kernel's wall time in µs and records the approximate-index
// counters for sketch-based snapshots; on error it also returns the HTTP
// status to answer with.
func (s *Server) run(ctx context.Context, snap *snapshot, admit bool, kernel func() error) (int64, int, error) {
	if admit {
		release, err := s.admit.acquireQuery(ctx)
		if err != nil {
			return 0, http.StatusServiceUnavailable, err
		}
		defer release()
	}
	var resolved int64
	if snap.approx > 0 {
		resolved = snap.idx.Approx().Resolved
	}
	start := time.Now()
	if err := kernel(); err != nil {
		return 0, http.StatusBadRequest, err
	}
	us := time.Since(start).Microseconds()
	if snap.approx > 0 {
		s.met.ApproxQueries.Add(1)
		s.met.ApproxResolvedArcs.Add(snap.idx.Approx().Resolved - resolved)
	}
	return us, 0, nil
}

// reply writes a read's outcome: the error with its status, or the answer —
// carrying the X-Anyscan-Stale header when a stale snapshot produced it.
func (s *Server) reply(w http.ResponseWriter, snap *snapshot, resp any, code int, err error) {
	if err != nil {
		s.countDeadline(err)
		writeError(w, code, err)
		return
	}
	if snap.stale {
		s.met.StaleServed.Add(1)
		w.Header().Set("X-Anyscan-Stale", "1")
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) countDeadline(err error) {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		s.met.DeadlineExceeded.Add(1)
	}
}

// readParams are the request parameters every read kind shares.
type readParams struct {
	ge       *GraphEntry
	mu       int
	approx   float64
	minEpoch int64
}

// parseRead validates the shared read parameters and looks the graph up.
// usage is the error for a request without a graph. On error it also
// returns the HTTP status.
func (s *Server) parseRead(q url.Values, usage string) (p readParams, code int, err error) {
	name := q.Get("graph")
	if name == "" {
		return p, http.StatusBadRequest, errors.New(usage)
	}
	if p.mu, err = parseMuParam(q); err != nil {
		return p, http.StatusBadRequest, err
	}
	if p.approx, err = parseApproxParam(q); err != nil {
		return p, http.StatusBadRequest, err
	}
	if p.minEpoch, err = parseMinEpoch(q); err != nil {
		return p, http.StatusBadRequest, err
	}
	if p.ge, err = s.reg.Get(name); err != nil {
		return p, errorCode(err), err
	}
	return p, 0, nil
}

// handleQuery answers GET /v1/query, the unified interactive endpoint: both
// μ and ε are request parameters served from the per-graph query index (one
// σ pass per graph, ever). With a single eps value the response carries the
// exact clustering at (μ, ε); with a comma-separated eps list, or none (the
// server then probes up to limit= interesting thresholds), it carries a
// profile of summary points per ε.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	p, code, err := s.parseRead(q,
		"need graph=<name>&mu=<int>[&eps=<float>[,<float>...]][&approx=<delta>]")
	if err != nil {
		writeError(w, code, err)
		return
	}

	raw := q.Get("eps")
	single := raw != "" && !strings.Contains(raw, ",")
	var eps float64
	var epsValues []float64
	limit := 16
	if single {
		if eps, err = parseEpsParam(raw); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	} else {
		// Profile form (eps list or probed thresholds). Profiles are always
		// exact: an accuracy dial would silently change what every point
		// means, so the combination is rejected outright.
		if p.approx > 0 {
			writeError(w, http.StatusBadRequest,
				errors.New("approx is only supported with a single eps (profile queries are always exact)"))
			return
		}
		if epsValues, err = parseEpsList(raw); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if rawLimit := q.Get("limit"); rawLimit != "" {
			if limit, err = strconv.Atoi(rawLimit); err != nil || limit <= 0 {
				writeError(w, http.StatusBadRequest, fmt.Errorf("bad limit %q", rawLimit))
				return
			}
		}
	}

	snap, code, err := s.resolve(r.Context(), p.ge, p.approx, p.minEpoch)
	var resp QueryResponse
	if err == nil {
		if single {
			resp, code, err = s.answerQuery(r.Context(), p.ge, snap, p.mu, eps, wantAssignments(r))
		} else {
			resp, code, err = s.answerProfile(r.Context(), p.ge, snap, p.mu, epsValues, limit)
		}
	}
	s.reply(w, snap, resp, code, err)
}

// answerQuery answers one (μ, ε) clustering from the snapshot.
// Assignment-carrying answers serialize O(|V|) state, so they are metered
// through the admission semaphore: a storm of them cannot starve builds or
// each other unboundedly.
func (s *Server) answerQuery(ctx context.Context, ge *GraphEntry, snap *snapshot, mu int, eps float64, withAssignments bool) (QueryResponse, int, error) {
	var res *cluster.Result
	us, code, err := s.run(ctx, snap, withAssignments, func() (err error) {
		res, err = snap.src.Query(mu, eps)
		return err
	})
	if err != nil {
		return QueryResponse{}, code, err
	}
	s.met.QueryUS.Add(us)
	s.met.QueriesServed.Add(1)
	return QueryResponse{
		Graph:             ge.Name,
		Mu:                mu,
		Eps:               eps,
		Approx:            snap.approx,
		CacheHit:          snap.hit,
		Stale:             snap.stale,
		Epoch:             snap.epoch,
		BuildMS:           snap.buildMS,
		QueryMS:           float64(us) / 1000,
		ClusteringPayload: clusteringPayload(res, withAssignments),
	}, 0, nil
}

// answerProfile answers a multi-ε profile for one μ from the snapshot. An
// index answers through the sweep explorer derived from it (no σ work;
// memoized per μ on the fresh cache entry), probing up to limit interesting
// thresholds when epsValues is empty. A live epoch has no derived explorer —
// it would go stale on every publish — so the ε list must be explicit, and
// each point is one epoch query.
func (s *Server) answerProfile(ctx context.Context, ge *GraphEntry, snap *snapshot, mu int, epsValues []float64, limit int) (QueryResponse, int, error) {
	var ex *sweep.Explorer
	var err error
	switch {
	case snap.entry != nil:
		ex, err = snap.entry.explorer(ctx, mu)
	case snap.idx != nil:
		ex, err = sweep.FromIndex(snap.idx, mu)
	case len(epsValues) == 0:
		err = fmt.Errorf("graph %q is live (mutated); profile queries need an explicit eps list", ge.Name)
	}
	if err != nil {
		return QueryResponse{}, http.StatusBadRequest, err
	}
	if len(epsValues) == 0 {
		epsValues = ex.InterestingThresholds(limit)
	}
	points := make([]SweepPoint, 0, len(epsValues))
	us, code, err := s.run(ctx, snap, false, func() error {
		if ex != nil {
			for _, p := range ex.SweepProfile(epsValues) {
				points = append(points, SweepPoint{Eps: p.Eps, Clusters: p.Clusters, Counts: roleCounts(p.Counts)})
			}
			return nil
		}
		for _, eps := range epsValues {
			res, err := snap.src.Query(mu, eps)
			if err != nil {
				return err
			}
			points = append(points, SweepPoint{Eps: eps, Clusters: res.NumClusters, Counts: roleCounts(res.RoleCounts())})
		}
		return nil
	})
	if err != nil {
		return QueryResponse{}, code, err
	}
	s.met.QueryUS.Add(us)
	s.met.QueriesServed.Add(1)
	return QueryResponse{
		Graph:    ge.Name,
		Mu:       mu,
		CacheHit: snap.hit,
		Stale:    snap.stale,
		Epoch:    snap.epoch,
		BuildMS:  snap.buildMS,
		QueryMS:  float64(us) / 1000,
		Points:   points,
	}, 0, nil
}

// handleLocal answers GET /v1/local?graph=&seed=&mu=&eps=[&approx=]: given
// graph, seed, μ, and ε, expand only the seed's community (plus its border
// fringe), with byte-identical membership to what a full /v1/query would
// assign that component.
func (s *Server) handleLocal(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	p, code, err := s.parseRead(q,
		"need graph=<name>&seed=<vertex>&mu=<int>&eps=<float>[&approx=<delta>]")
	if err != nil {
		writeError(w, code, err)
		return
	}
	eps, err := parseEpsParam(q.Get("eps"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	seed, err := parseSeedParam(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := vertexInRange(seed, p.ge.G.NumVertices()); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	snap, code, err := s.resolve(r.Context(), p.ge, p.approx, p.minEpoch)
	var resp LocalResponse
	if err == nil {
		resp, code, err = s.answerLocal(r.Context(), p.ge, snap, seed, p.mu, eps, wantMembers(r))
	}
	s.reply(w, snap, resp, code, err)
}

// answerLocal answers one local query from the snapshot. An approximate
// index answers through its band-aware LocalView. The expansion is cheap
// relative to an index build but still serializes O(community) state, so it
// is metered through the admission semaphore at query weight.
func (s *Server) answerLocal(ctx context.Context, ge *GraphEntry, snap *snapshot, seed int32, mu int, eps float64, withMembers bool) (LocalResponse, int, error) {
	if err := vertexInRange(seed, snap.src.NumVertices()); err != nil {
		// Only a stale index of an older, smaller generation lacks the
		// seed: the request is valid, the degraded source cannot answer it.
		return LocalResponse{}, http.StatusServiceUnavailable, err
	}
	view := snap.src.LocalView(eps)
	var res *local.Result
	us, code, err := s.run(ctx, snap, true, func() (err error) {
		res, err = local.Query(view, seed, mu, eps)
		return err
	})
	if err != nil {
		return LocalResponse{}, code, err
	}
	s.met.LocalQueries.Add(1)
	s.met.LocalFrontier.Add(int64(res.Touched))
	s.met.LocalQueryUS.Add(us)
	resp := LocalResponse{
		Graph:    ge.Name,
		Seed:     res.Seed,
		Mu:       res.Mu,
		Eps:      res.Eps,
		Role:     res.Role.String(),
		Approx:   snap.approx,
		CacheHit: snap.hit,
		Stale:    snap.stale,
		Epoch:    snap.epoch,
		BuildMS:  snap.buildMS,
		QueryMS:  float64(us) / 1000,
		Size:     len(res.Members),
		Touched:  res.Touched,
	}
	if withMembers && len(res.Members) > 0 {
		resp.Members = res.Members
		resp.Roles = make([]int8, len(res.Roles))
		for i, role := range res.Roles {
			resp.Roles[i] = int8(role)
		}
	}
	return resp, 0, nil
}

// vertexInRange validates a request-supplied vertex id against the graph's
// vertex count. Every handler that accepts a vertex id must call it (or an
// equivalent domain validation) before doing any work, so malformed input
// is a structured 400, never a panic.
func vertexInRange(v int32, n int) error {
	if v < 0 || int(v) >= n {
		return fmt.Errorf("vertex %d out of range [0, %d)", v, n)
	}
	return nil
}

// wantMembers reports whether the response should carry the full member
// list (the default; ?members=0 suppresses it for summary-only callers).
func wantMembers(r *http.Request) bool {
	v := r.URL.Query().Get("members")
	return v != "0" && v != "false"
}
