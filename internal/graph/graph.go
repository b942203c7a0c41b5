// Package graph is the graph-analytics substrate for the paper's
// Gardenia-derived side tasks (§6.1.4): a CSR graph representation, a
// deterministic RMAT-style generator standing in for the Orkut dataset
// (which is not redistributable here), PageRank, and SGD matrix
// factorization. The algorithms run for real on the host; the simulated GPU
// is charged their kernel cost by the side-task layer. A step allocates
// nothing: PageRank swaps its two rank vectors, and SGDMF reshuffles its one
// pass-order buffer in place with rand.Perm's own draws.
package graph

import (
	"fmt"
	"math/rand"
	"sort"
)

// CSR is a directed graph in compressed sparse row form.
type CSR struct {
	// RowPtr has N+1 entries; the out-neighbors of u are
	// Cols[RowPtr[u]:RowPtr[u+1]].
	RowPtr []int64
	Cols   []int32
}

// NumNodes reports the node count.
func (g *CSR) NumNodes() int { return len(g.RowPtr) - 1 }

// NumEdges reports the directed edge count.
func (g *CSR) NumEdges() int64 { return g.RowPtr[len(g.RowPtr)-1] }

// OutDegree reports the out-degree of node u.
func (g *CSR) OutDegree(u int) int64 { return g.RowPtr[u+1] - g.RowPtr[u] }

// Neighbors returns the out-neighbor slice of u (shared storage; do not
// mutate).
func (g *CSR) Neighbors(u int) []int32 {
	return g.Cols[g.RowPtr[u]:g.RowPtr[u+1]]
}

// FromEdges builds a CSR from an edge list over n nodes, deduplicating and
// sorting adjacency lists.
func FromEdges(n int, edges [][2]int32) (*CSR, error) {
	if n <= 0 {
		return nil, fmt.Errorf("graph: %d nodes", n)
	}
	adj := make([][]int32, n)
	for _, e := range edges {
		u, v := e[0], e[1]
		if u < 0 || int(u) >= n || v < 0 || int(v) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, n)
		}
		adj[u] = append(adj[u], v)
	}
	g := &CSR{RowPtr: make([]int64, n+1)}
	for u := 0; u < n; u++ {
		nbrs := adj[u]
		sort.Slice(nbrs, func(i, j int) bool { return nbrs[i] < nbrs[j] })
		dedup := nbrs[:0]
		var prev int32 = -1
		for _, v := range nbrs {
			if v != prev {
				dedup = append(dedup, v)
				prev = v
			}
		}
		g.Cols = append(g.Cols, dedup...)
		g.RowPtr[u+1] = int64(len(g.Cols))
	}
	return g, nil
}

// RMATConfig parameterizes the recursive-matrix generator. The defaults
// produce the skewed degree distribution of social graphs like Orkut.
type RMATConfig struct {
	// Nodes is rounded up to the next power of two internally, then
	// truncated back.
	Nodes int
	// EdgeFactor is average out-degree (Orkut ≈ 38).
	EdgeFactor int
	// A, B, C are the RMAT quadrant probabilities (D = 1-A-B-C).
	A, B, C float64
	Seed    int64
}

func (c *RMATConfig) normalize() {
	if c.Nodes <= 0 {
		c.Nodes = 1 << 14
	}
	if c.EdgeFactor <= 0 {
		c.EdgeFactor = 16
	}
	if c.A == 0 && c.B == 0 && c.C == 0 {
		c.A, c.B, c.C = 0.57, 0.19, 0.19
	}
}

// RMAT deterministically generates a power-law directed graph.
func RMAT(cfg RMATConfig) *CSR {
	cfg.normalize()
	rng := rand.New(rand.NewSource(cfg.Seed))
	levels := 0
	for 1<<levels < cfg.Nodes {
		levels++
	}
	n := cfg.Nodes
	m := n * cfg.EdgeFactor
	edges := make([][2]int32, 0, m)
	for i := 0; i < m; i++ {
		var u, v int
		for l := 0; l < levels; l++ {
			r := rng.Float64()
			switch {
			case r < cfg.A:
				// upper-left: nothing to add
			case r < cfg.A+cfg.B:
				v |= 1 << l
			case r < cfg.A+cfg.B+cfg.C:
				u |= 1 << l
			default:
				u |= 1 << l
				v |= 1 << l
			}
		}
		if u >= n || v >= n || u == v {
			continue
		}
		edges = append(edges, [2]int32{int32(u), int32(v)})
	}
	g, err := FromEdges(n, edges)
	if err != nil {
		// Unreachable: generated edges are range-checked above.
		panic(err)
	}
	return g
}
