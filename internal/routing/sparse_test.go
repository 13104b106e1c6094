package routing

import (
	"errors"
	"math"
	"sort"
	"testing"

	"ripple/internal/pkt"
	"ripple/internal/sim"
)

// sparseWorld builds a 500-station jittered grid plus one unreachable
// outlier, with a distance-driven link probability and the matching
// candidate neighbor graph — the same shape a pruned radio link plan
// feeds NewSparseTableSym, without importing the radio package.
//
// The probability ramp hits the 0.1 minProb floor at 220 m and the
// candidate radius is 230 m, so the candidate graph strictly contains the
// usable link set (like geometric pruning, which cuts at the carrier-sense
// power, far below the usable-link threshold). Jitter stays at ±20 m so
// adjacent grid stations (≤194 m apart) always remain usable: the grid
// component is connected by construction.
func sparseWorld() (n int, prob LinkProbFunc, neighbors func(a pkt.NodeID) []int32, outlier pkt.NodeID) {
	const rows, cols, spacing, jitter = 20, 25, 150.0, 20.0
	n = rows*cols + 1
	outlier = pkt.NodeID(n - 1)
	type xy struct{ x, y float64 }
	pos := make([]xy, 0, n)
	rng := sim.NewRNG(23, 5)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			pos = append(pos, xy{
				x: float64(c)*spacing + (rng.Float64()*2-1)*jitter,
				y: float64(r)*spacing + (rng.Float64()*2-1)*jitter,
			})
		}
	}
	pos = append(pos, xy{x: 1e6, y: 1e6}) // the outlier: no usable links
	dist := func(a, b pkt.NodeID) float64 {
		dx, dy := pos[a].x-pos[b].x, pos[a].y-pos[b].y
		return math.Sqrt(dx*dx + dy*dy)
	}
	prob = func(a, b pkt.NodeID) float64 {
		p := 1.2 - dist(a, b)/200 // ≥0.1 ⇔ within 220 m
		if p < 0 {
			return 0
		}
		if p > 1 {
			return 1
		}
		return p
	}
	adj := make([][]int32, n)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a != b && dist(pkt.NodeID(a), pkt.NodeID(b)) <= 230 {
				adj[a] = append(adj[a], int32(b))
			}
		}
		sort.Slice(adj[a], func(i, j int) bool { return adj[a][i] < adj[a][j] })
	}
	neighbors = func(a pkt.NodeID) []int32 { return adj[a] }
	return n, prob, neighbors, outlier
}

// candidateTable builds the table over the candidate graph the way a
// pruned radio link plan does: NewSparseTableSym, one probability per
// offered pair (prob is symmetric).
func candidateTable(n int, neighbors func(a pkt.NodeID) []int32, prob LinkProbFunc) *Table {
	return NewSparseTableSym(n, func(a pkt.NodeID, yield func(b int32, p float64)) {
		for _, b := range neighbors(a) {
			yield(b, prob(a, pkt.NodeID(b)))
		}
	}, 0.1)
}

// TestSparseTableMatchesDense proves that a table built over the pruned
// candidate graph is the all-pairs table: identical link metrics on every
// pair, identical Dijkstra distances from every source (covering every
// source/destination pair), and identical paths — bit for bit, since both
// hold the same usable links and relax them in ascending ID order.
func TestSparseTableMatchesDense(t *testing.T) {
	n, prob, neighbors, _ := sparseWorld()
	dense := NewTable(n, prob, 0.1)
	sparse := candidateTable(n, neighbors, prob)
	if sparse.Links() == 0 {
		t.Fatal("candidate table kept no links")
	}
	candidates := 0
	for a := 0; a < n; a++ {
		candidates += len(neighbors(pkt.NodeID(a)))
	}
	if sparse.Links() >= candidates {
		t.Fatalf("candidate graph (%d pairs) prunes nothing beyond minProb (%d links) — world set up wrong",
			candidates, sparse.Links())
	}

	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			de := dense.LinkETX(pkt.NodeID(a), pkt.NodeID(b))
			se := sparse.LinkETX(pkt.NodeID(a), pkt.NodeID(b))
			if de != se && !(math.IsInf(de, 1) && math.IsInf(se, 1)) {
				t.Fatalf("LinkETX(%d,%d): all-pairs %g, candidate %g", a, b, de, se)
			}
		}
	}
	if dense.Links() != sparse.Links() {
		t.Fatalf("all-pairs table has %d usable links, candidate table %d", dense.Links(), sparse.Links())
	}

	for src := 0; src < n; src++ {
		dd := dense.Distances(pkt.NodeID(src), nil)
		sd := sparse.Distances(pkt.NodeID(src), nil)
		for dst := range dd {
			if dd[dst] != sd[dst] && !(math.IsInf(dd[dst], 1) && math.IsInf(sd[dst], 1)) {
				t.Fatalf("Distances(%d)[%d]: all-pairs %g, candidate %g", src, dst, dd[dst], sd[dst])
			}
		}
	}

	// Paths, including under a custom link cost (the congestion-policy
	// shape: a per-relay surcharge).
	cost := func(u, v pkt.NodeID, etx float64) float64 { return etx + 0.01*float64(v%7) }
	for src := 0; src < n-1; src += 37 {
		for dst := 1; dst < n-1; dst += 41 {
			if src == dst {
				continue
			}
			dp, derr := dense.ShortestPath(pkt.NodeID(src), pkt.NodeID(dst))
			sp, serr := sparse.ShortestPath(pkt.NodeID(src), pkt.NodeID(dst))
			if (derr == nil) != (serr == nil) {
				t.Fatalf("path %d->%d: all-pairs err %v, candidate err %v", src, dst, derr, serr)
			}
			if !samePath(dp, sp) {
				t.Fatalf("path %d->%d: all-pairs %v, candidate %v", src, dst, dp, sp)
			}
			dp, _ = dense.ShortestPathCost(pkt.NodeID(src), pkt.NodeID(dst), cost)
			sp, _ = sparse.ShortestPathCost(pkt.NodeID(src), pkt.NodeID(dst), cost)
			if !samePath(dp, sp) {
				t.Fatalf("cost path %d->%d: all-pairs %v, candidate %v", src, dst, dp, sp)
			}
		}
	}
}

func samePath(a, b Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSparseTableNoRoute pins the unreachable-station contract: tables
// built over all pairs and over the candidate graph both report the
// ErrNoRoute sentinel and +Inf distance for the outlier, in both
// directions.
func TestSparseTableNoRoute(t *testing.T) {
	n, prob, neighbors, outlier := sparseWorld()
	for name, tab := range map[string]*Table{
		"all-pairs": NewTable(n, prob, 0.1),
		"candidate": candidateTable(n, neighbors, prob),
	} {
		if _, err := tab.ShortestPath(0, outlier); !errors.Is(err, ErrNoRoute) {
			t.Fatalf("%s: ShortestPath(0, outlier) err = %v, want ErrNoRoute", name, err)
		}
		if _, err := tab.ShortestPath(outlier, 0); !errors.Is(err, ErrNoRoute) {
			t.Fatalf("%s: reverse err not ErrNoRoute", name)
		}
		if d := tab.Distances(0, nil); !math.IsInf(d[outlier], 1) {
			t.Fatalf("%s: outlier distance %g, want +Inf", name, d[outlier])
		}
	}
}
