// Package cds implements Section 4 of the paper: transforming a dominating
// set S into a connected dominating set (Theorem 1.4, a deterministic
// O(ln Δ)-approximation).
//
// Construction, following the paper:
//
//  1. Build G_S (Claim 4.1): the graph on S with edges between members at
//     G-distance ≤ 3; G_S is connected iff G is.
//  2. Compute a ruling set S' ⊆ S on G_S: pairwise distance ≥ α, every
//     member of S within distance < α of S' (the paper uses the [ALGP89,
//     HKN16] construction with α = Θ(log² n); α is a parameter here). We
//     select greedily in ID order: a member becomes a centre iff no
//     earlier centre lies within distance α−1. One array of capped
//     distances to the nearest centre, relaxed by a depth-(α−1) BFS from
//     each new centre, decides every candidate in O(1); each entry falls
//     at most α times, so the step costs O(α·|E(G_S)|).
//  3. Cluster S around S' by multi-source BFS in G_S, building cluster
//     trees whose G_S edges are realized as G-paths of length ≤ 3
//     (Lemma 4.2).
//  4. Connect the cluster graph G'_S: the paper derandomizes the
//     Baswana–Sen spanner [BS07, GK18] to add O(|S'| log²|S'|) connecting
//     edges; we use a BFS spanning tree of G'_S, which is smaller
//     (|S'|−1 edges) and is valid because the construction is charged
//     rounds rather than executed natively (DESIGN.md, substitution 1
//     discussion applies; the spanner exists to make this step efficient in
//     the real CONGEST model).
//  5. CDS = S ∪ inner nodes of all realized paths. Each G_S edge
//     contributes ≤ 2 inner nodes, so |CDS| ≤ 3|S| − 2.
package cds

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"congestds/internal/congest"
	"congestds/internal/graph"
	"congestds/internal/mds"
	"congestds/internal/verify"
)

// Params configures Solve.
type Params struct {
	// MDS configures the underlying dominating set computation.
	MDS mds.Params
	// Alpha is the ruling set distance parameter on G_S (the paper's
	// c'·log² n). Zero means max(2, ⌈log₂(n+1)⌉).
	Alpha int
}

// Result is the output of Solve.
type Result struct {
	// CDS is the connected dominating set.
	CDS []int
	// DS is the underlying dominating set from Part 1.
	DS []int
	// RulingSet is S' (cluster centres).
	RulingSet []int
	// Bound is the guaranteed approximation factor 3·(1+ε)(1+ln(Δ+1)).
	Bound float64
	// Ledger accumulates rounds across the MDS pipeline and the CDS
	// transformation.
	Ledger *congest.Ledger
}

// Solve computes a connected dominating set of the connected graph g.
func Solve(g *graph.Graph, p Params) (*Result, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	if g.N() == 0 {
		return &Result{Ledger: &congest.Ledger{}}, nil
	}
	if !g.IsConnected() {
		return nil, fmt.Errorf("cds: graph is not connected")
	}
	mres, err := mds.Solve(g, p.MDS)
	if err != nil {
		return nil, fmt.Errorf("cds: dominating set: %w", err)
	}
	res, err := Extend(g, mres.Set, p, mres.Ledger)
	if err != nil {
		return nil, err
	}
	res.Bound = 3 * mres.Bound
	return res, nil
}

// validate rejects parameters no run can honour.
func (p Params) validate() error {
	if p.Alpha < 0 {
		return fmt.Errorf("%w: cds: alpha=%d must be ≥ 0 (0 selects the default)", congest.ErrConfig, p.Alpha)
	}
	return nil
}

// Extend turns an existing dominating set into a connected dominating set
// (the Section 4 transformation alone). The ledger may be nil.
func Extend(g *graph.Graph, ds []int, p Params, ledger *congest.Ledger) (*Result, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	if ledger == nil {
		ledger = &congest.Ledger{}
	}
	res := &Result{DS: append([]int(nil), ds...), Ledger: ledger}
	if v := verify.FirstUndominated(g, ds); v != -1 {
		return nil, fmt.Errorf("cds: input set does not dominate node %d", v)
	}
	if len(ds) <= 1 {
		res.CDS = append([]int(nil), ds...)
		return res, nil
	}
	if p.Alpha == 0 {
		p.Alpha = int(math.Max(2, math.Ceil(math.Log2(float64(g.N()+1)))))
	}

	gs := buildGS(g, ds)

	// Ruling set on G_S by greedy ID order (deterministic substitute for the
	// [ALGP89/HKN16] distributed construction; same (α, α−1) guarantees).
	centres := rulingSet(g, gs, p.Alpha)
	res.RulingSet = make([]int, len(centres))
	for i, c := range centres {
		res.RulingSet[i] = gs.nodes[c]
	}

	// CDS nodes: S plus the inner nodes of every G_S edge the cluster trees
	// and the cluster-graph spanning tree use.
	inCDS := make([]bool, g.N())
	for _, s := range gs.nodes {
		inCDS[s] = true
	}
	clusterOf := clusterize(gs, centres, inCDS)
	if err := connectClusters(gs, centres, clusterOf, inCDS); err != nil {
		return nil, err
	}

	for v, in := range inCDS {
		if in {
			res.CDS = append(res.CDS, v)
		}
	}

	// Charged rounds: ruling set + clustering are the paper's O(log³ n)
	// phase (Lemma 4.2); connecting the clusters costs O(cluster-graph
	// diameter) G_S rounds, each simulated by ≤ 3 G rounds with the path
	// selection of [Gha14].
	logn := int(math.Ceil(math.Log2(float64(g.N() + 1))))
	ledger.Charge("cds/ruling+clustering", p.Alpha*logn+3*logn)
	ledger.Charge("cds/connect", 3*(len(centres)+1))

	if err := verify.CheckCDS(g, res.CDS); err != nil {
		return nil, fmt.Errorf("cds: internal: %w", err)
	}
	return res, nil
}

// gsGraph is G_S: S-members with edges between members at distance ≤ 3,
// each edge carrying a realizing G-path. Adjacency is CSR over positions
// in nodes, ascending within a row; inner is aligned with adj.
type gsGraph struct {
	nodes []int      // the members of S, sorted and distinct
	off   []int      // row a of adj is adj[off[a]:off[a+1]]
	adj   []int32    // neighbour positions
	inner [][2]int32 // inner nodes (≤ 2, −1 padded) of the slot's G-path
}

// row returns the neighbour positions of position a.
func (gs *gsGraph) row(a int) []int32 { return gs.adj[gs.off[a]:gs.off[a+1]] }

// addInner inserts the inner nodes of adjacency slot k's G-path into the
// CDS (its endpoints are S-members and already in).
func (gs *gsGraph) addInner(inCDS []bool, k int) {
	for _, v := range gs.inner[k] {
		if v >= 0 {
			inCDS[v] = true
		}
	}
}

// buildGS constructs G_S by depth-3 BFS from every member of S. An edge
// {a, b} with a < b is realized by the path found by a's BFS, which runs
// first; b's BFS skips it.
func buildGS(g *graph.Graph, ds []int) *gsGraph {
	nodes := append([]int(nil), ds...)
	sort.Ints(nodes)
	nodes = slices.Compact(nodes)
	n := g.N()
	pos := make([]int32, n) // node -> position in nodes, −1 outside S
	dist := make([]int8, n)
	parent := make([]int32, n)
	for i := range pos {
		pos[i] = -1
		dist[i] = -1
	}
	for i, v := range nodes {
		pos[v] = int32(i)
	}
	type edge struct {
		a, b  int32
		inner [2]int32
	}
	var edges, found []edge
	deg := make([]int, len(nodes))
	var queue []int32
	for si, s := range nodes {
		// BFS to depth 3.
		queue = append(queue[:0], int32(s))
		dist[s] = 0
		parent[s] = -1
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			if dist[v] == 3 {
				continue
			}
			for _, u := range g.Neighbors(int(v)) {
				if dist[u] >= 0 {
					continue
				}
				dist[u] = dist[v] + 1
				parent[u] = v
				queue = append(queue, u)
			}
		}
		found = found[:0]
		for _, t := range queue {
			if ti := pos[t]; ti > int32(si) {
				e := edge{a: int32(si), b: ti, inner: [2]int32{-1, -1}}
				for k, v := 0, parent[t]; v != int32(s); k, v = k+1, parent[v] {
					e.inner[k] = v
				}
				found = append(found, e)
				deg[si]++
				deg[ti]++
			}
		}
		// Sorting each BFS's edges by b keeps edges in (a, b) order, so the
		// fill below leaves every row ascending: a row's smaller neighbours
		// arrive from earlier BFSs, its larger ones from its own.
		slices.SortFunc(found, func(x, y edge) int { return int(x.b - y.b) })
		edges = append(edges, found...)
		for _, v := range queue {
			dist[v] = -1
		}
	}
	gs := &gsGraph{
		nodes: nodes,
		off:   make([]int, len(nodes)+1),
		adj:   make([]int32, 2*len(edges)),
		inner: make([][2]int32, 2*len(edges)),
	}
	for i, d := range deg {
		gs.off[i+1] = gs.off[i] + d
	}
	fill := append([]int(nil), gs.off[:len(nodes)]...)
	for _, e := range edges {
		for _, end := range [2][2]int32{{e.a, e.b}, {e.b, e.a}} {
			k := fill[end[0]]
			fill[end[0]]++
			gs.adj[k] = end[1]
			gs.inner[k] = e.inner
		}
	}
	return gs
}

// rulingSet selects centres greedily in g-ID order: a member becomes a
// centre iff no earlier centre lies within G_S distance α−1. near[v] is
// v's G_S distance to the closest centre so far, capped at α; a new
// centre relaxes it by a BFS that stops at depth α−1 and at nodes it does
// not improve. Each near[v] only falls, at most α times, so the scan costs
// O(α·|E(G_S)|). It returns the centres' positions, ascending.
func rulingSet(g *graph.Graph, gs *gsGraph, alpha int) []int {
	order := make([]int, len(gs.nodes))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return g.ID(gs.nodes[order[a]]) < g.ID(gs.nodes[order[b]])
	})
	near := make([]int, len(gs.nodes))
	for i := range near {
		near[i] = alpha
	}
	var rs []int
	var queue []int32
	for _, cand := range order {
		if near[cand] < alpha {
			continue
		}
		rs = append(rs, cand)
		near[cand] = 0
		queue = append(queue[:0], int32(cand))
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			d := near[v] + 1
			if d >= alpha {
				continue
			}
			for _, u := range gs.row(int(v)) {
				if d < near[u] {
					near[u] = d
					queue = append(queue, u)
				}
			}
		}
	}
	sort.Ints(rs)
	return rs
}

// clusterize assigns every G_S node to its nearest centre (ties: smaller
// centre position, then smaller node) by multi-source BFS from the
// ascending centre positions, adds the inner nodes of every BFS tree edge
// to the CDS, and returns each position's cluster centre position.
func clusterize(gs *gsGraph, centres []int, inCDS []bool) []int32 {
	clusterOf := make([]int32, len(gs.nodes))
	for i := range clusterOf {
		clusterOf[i] = -1
	}
	queue := make([]int32, 0, len(gs.nodes))
	for _, c := range centres {
		clusterOf[c] = int32(c)
		queue = append(queue, int32(c))
	}
	for qi := 0; qi < len(queue); qi++ {
		v := int(queue[qi])
		for k := gs.off[v]; k < gs.off[v+1]; k++ {
			u := gs.adj[k]
			if clusterOf[u] >= 0 {
				continue
			}
			clusterOf[u] = clusterOf[v]
			gs.addInner(inCDS, k)
			queue = append(queue, u)
		}
	}
	return clusterOf
}

// connectClusters adds connector paths between clusters along a BFS spanning
// tree of the cluster graph.
func connectClusters(gs *gsGraph, centres []int, clusterOf []int32, inCDS []bool) error {
	if len(centres) <= 1 {
		return nil
	}
	// Cluster adjacency with representative G_S edges: rows ascend, so the
	// first slot seen for a cluster pair is its lexicographically smallest
	// position pair.
	reps := make(map[[2]int32]int)
	for a := range gs.nodes {
		for k := gs.off[a]; k < gs.off[a+1]; k++ {
			b := gs.adj[k]
			if int(b) <= a {
				continue
			}
			ca, cb := clusterOf[a], clusterOf[b]
			if ca == cb {
				continue
			}
			key := [2]int32{min(ca, cb), max(ca, cb)}
			if _, ok := reps[key]; !ok {
				reps[key] = k
			}
		}
	}
	// BFS over clusters from the smallest centre position.
	adj := make(map[int32][]int32)
	for key := range reps {
		adj[key[0]] = append(adj[key[0]], key[1])
		adj[key[1]] = append(adj[key[1]], key[0])
	}
	for c := range adj {
		slices.Sort(adj[c])
	}
	visited := make([]bool, len(gs.nodes))
	visited[centres[0]] = true
	queue := []int32{int32(centres[0])}
	for qi := 0; qi < len(queue); qi++ {
		c := queue[qi]
		for _, d := range adj[c] {
			if visited[d] {
				continue
			}
			visited[d] = true
			queue = append(queue, d)
			gs.addInner(inCDS, reps[[2]int32{min(c, d), max(c, d)}])
		}
	}
	if len(queue) != len(centres) {
		return fmt.Errorf("cds: cluster graph disconnected (%d of %d clusters reached)",
			len(queue), len(centres))
	}
	return nil
}
