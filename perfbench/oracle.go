package main

import (
	"fmt"
	"slices"

	"anyscan/internal/cluster"
	"anyscan/internal/index"
	"anyscan/internal/server"
)

// oracle supplies the expected answers the stages compare against. With
// corrupt set, every expected answer is deliberately wrong, which the tests
// use to check that a wrong answer is counted as a failure.
type oracle struct{ corrupt bool }

// minARI is the quality floor of the approximate index against the exact
// one at the same (μ, ε).
func (o oracle) minARI() float64 {
	if o.corrupt {
		return 1.01
	}
	return 0.99
}

// result returns the expected clustering, moving one clustered vertex to
// noise when corrupt.
func (o oracle) result(r *cluster.Result) *cluster.Result {
	if !o.corrupt {
		return r
	}
	c := &cluster.Result{
		Roles:       slices.Clone(r.Roles),
		Labels:      slices.Clone(r.Labels),
		NumClusters: r.NumClusters + 1,
	}
	for v, l := range c.Labels {
		if l != cluster.NoLabel {
			c.Labels[v], c.Roles[v] = cluster.NoLabel, cluster.Outlier
			break
		}
	}
	return c
}

// clusters returns the expected cluster count.
func (o oracle) clusters(n int) int {
	if o.corrupt {
		return n + 1
	}
	return n
}

func roleCounts(c cluster.Counts) server.RoleCounts {
	return server.RoleCounts{Cores: c.Cores, Borders: c.Borders, Hubs: c.Hubs, Outliers: c.Outliers, Unclassified: c.Unclassified}
}

// members returns the expected community of a local query.
func (o oracle) members(m []int32) []int32 {
	if o.corrupt {
		return append(slices.Clone(m), -1)
	}
	return m
}

// minEpoch returns the lowest epoch an answer to a read asking for
// requested may carry.
func (o oracle) minEpoch(requested int64) int64 {
	if o.corrupt {
		return requested + 1<<40
	}
	return requested
}

// sameResult requires byte-identical labels and roles.
func sameResult(want, got *cluster.Result) error {
	switch {
	case len(want.Labels) != len(got.Labels):
		return fmt.Errorf("%d vertices, want %d", len(got.Labels), len(want.Labels))
	case want.NumClusters != got.NumClusters:
		return fmt.Errorf("%d clusters, want %d", got.NumClusters, want.NumClusters)
	}
	for v := range want.Labels {
		if want.Labels[v] != got.Labels[v] || want.Roles[v] != got.Roles[v] {
			return fmt.Errorf("vertex %d: label %d role %v, want label %d role %v",
				v, got.Labels[v], got.Roles[v], want.Labels[v], want.Roles[v])
		}
	}
	return nil
}

// sameLabels checks that got is the clustering want describes, comparing
// labels only: anySCAN may report a pruned core as a border, and a border
// similar to cores of two clusters may join either. So want's cores must
// be partitioned alike, the same vertices must be clustered, and every
// other clustered vertex must sit in a cluster holding a core it is
// similar to, per the exact index x at eps.
func sameLabels(want, got *cluster.Result, x *index.Index, eps float64) error {
	if len(want.Labels) != len(got.Labels) {
		return fmt.Errorf("%d vertices, want %d", len(got.Labels), len(want.Labels))
	}
	if want.NumClusters != got.NumClusters {
		return fmt.Errorf("%d clusters, want %d", got.NumClusters, want.NumClusters)
	}
	toGot := make(map[int32]int32)
	toWant := make(map[int32]int32)
	for v, role := range want.Roles {
		lw, lg := want.Labels[v], got.Labels[v]
		if (lw == cluster.NoLabel) != (lg == cluster.NoLabel) {
			return fmt.Errorf("vertex %d: label %d, want %d", v, lg, lw)
		}
		if role != cluster.Core {
			continue
		}
		if prev, ok := toGot[lw]; ok && prev != lg {
			return fmt.Errorf("core %d: cluster %d is split", v, lw)
		}
		if prev, ok := toWant[lg]; ok && prev != lw {
			return fmt.Errorf("core %d: clusters %d and %d are merged", v, prev, lw)
		}
		toGot[lw], toWant[lg] = lg, lw
	}
	for v, role := range want.Roles {
		if role == cluster.Core || want.Labels[v] == cluster.NoLabel {
			continue
		}
		c, ok := toWant[got.Labels[v]]
		if !ok {
			return fmt.Errorf("vertex %d: label %d belongs to no core", v, got.Labels[v])
		}
		ids, sigs := x.NeighborOrder(int32(v))
		attached := false
		for i, q := range ids {
			if sigs[i] >= eps && want.Roles[q] == cluster.Core && want.Labels[q] == c {
				attached = true
				break
			}
		}
		if !attached {
			return fmt.Errorf("border %d: cluster %d has no core similar to it", v, c)
		}
	}
	return nil
}
