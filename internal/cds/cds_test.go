package cds

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"testing"

	"congestds/internal/baseline"
	"congestds/internal/congest"
	"congestds/internal/graph"
	"congestds/internal/mds"
	"congestds/internal/verify"
)

func TestSolveRejectsDisconnected(t *testing.T) {
	g, err := graph.FromEdges(4, [][2]int{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Solve(g, Params{}); err == nil {
		t.Error("disconnected graph accepted")
	}
}

func TestSolveEmptyAndSingle(t *testing.T) {
	res, err := Solve(graph.Path(0), Params{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CDS) != 0 {
		t.Error("empty graph should have empty CDS")
	}
	res, err = Solve(graph.Path(1), Params{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CDS) != 1 {
		t.Errorf("single node CDS size %d, want 1", len(res.CDS))
	}
}

func TestCDSAcrossFamilies(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"path20", graph.Path(20)},
		{"cycle16", graph.Cycle(16)},
		{"star14", graph.Star(14)},
		{"grid5x5", graph.Grid(5, 5)},
		{"gnp50", graph.GNPConnected(50, 0.1, 3)},
		{"caterpillar", graph.Caterpillar(6, 3)},
		{"tree", graph.CompleteTree(2, 4)},
		{"disk", graph.UnitDiskConnected(60, 0.25, 4)},
	}
	for _, tt := range graphs {
		t.Run(tt.name, func(t *testing.T) {
			res, err := Solve(tt.g, Params{})
			if err != nil {
				t.Fatal(err)
			}
			if err := verify.CheckCDS(tt.g, res.CDS); err != nil {
				t.Fatalf("invalid CDS: %v", err)
			}
			// Section 4 size bound: |CDS| ≤ 3|S| (we add ≤ 2 inner nodes per
			// used G_S edge, with ≤ |S|−1 edges used).
			if len(res.CDS) > 3*len(res.DS) {
				t.Errorf("|CDS|=%d exceeds 3|DS|=%d", len(res.CDS), 3*len(res.DS))
			}
			if res.Ledger.Metrics().TotalRounds() <= 0 {
				t.Error("no rounds charged")
			}
		})
	}
}

func TestCDSWithDecompositionEngine(t *testing.T) {
	g := graph.GNPConnected(40, 0.12, 9)
	res, err := Solve(g, Params{MDS: mds.Params{Engine: mds.EngineDecomposition}})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.CheckCDS(g, res.CDS); err != nil {
		t.Fatal(err)
	}
}

// Theorem 1.4 bound (against exact MDS optimum, since OPT_CDS ≥ OPT_DS):
// |CDS| ≤ 3·(1+ε)(1+ln(Δ+1))·OPT_DS on small graphs.
func TestCDSApproximationBound(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"path12", graph.Path(12)},
		{"cycle13", graph.Cycle(13)},
		{"grid4x4", graph.Grid(4, 4)},
		{"gnp22", graph.GNPConnected(22, 0.2, 11)},
	}
	for _, tt := range graphs {
		t.Run(tt.name, func(t *testing.T) {
			res, err := Solve(tt.g, Params{MDS: mds.Params{Eps: 0.5}})
			if err != nil {
				t.Fatal(err)
			}
			opt := len(baseline.Exact(tt.g))
			if float64(len(res.CDS)) > res.Bound*float64(opt)+1e-9 {
				t.Errorf("|CDS|=%d exceeds bound %.2f × OPT %d", len(res.CDS), res.Bound, opt)
			}
		})
	}
}

func TestExtendRejectsNonDominating(t *testing.T) {
	g := graph.Path(6)
	if _, err := Extend(g, []int{0}, Params{}, nil); err == nil {
		t.Error("non-dominating input accepted")
	}
}

func TestExtendKeepsDSMembers(t *testing.T) {
	g := graph.Cycle(15)
	ds := baseline.Greedy(g)
	res, err := Extend(g, ds, Params{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	in := make(map[int]bool)
	for _, v := range res.CDS {
		in[v] = true
	}
	for _, v := range ds {
		if !in[v] {
			t.Errorf("DS member %d missing from CDS", v)
		}
	}
}

func TestCDSDeterministic(t *testing.T) {
	g := graph.GNPConnected(36, 0.15, 5)
	a, err := Solve(g, Params{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(g, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.CDS) != len(b.CDS) {
		t.Fatal("non-deterministic CDS size")
	}
	for i := range a.CDS {
		if a.CDS[i] != b.CDS[i] {
			t.Fatal("non-deterministic CDS")
		}
	}
}

// Claim 4.1: G_S is connected iff G is connected — indirectly verified by
// connectClusters succeeding on every connected family above; here check a
// long path explicitly, where G_S connectivity relies on distance-3 edges.
func TestGSConnectivityOnPath(t *testing.T) {
	g := graph.Path(30)
	res, err := Solve(g, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.CheckCDS(g, res.CDS); err != nil {
		t.Fatal(err)
	}
}

func TestRulingSetSeparation(t *testing.T) {
	g := graph.Path(40)
	ds := baseline.Greedy(g)
	res, err := Extend(g, ds, Params{Alpha: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Pairwise G-distance of centres must be ≥ 3 (alpha) in G_S terms,
	// i.e. > 3·2 in G is not guaranteed, but centres must be distinct and
	// at G_S distance ≥ alpha: verify pairwise G-distance > 3 (one G_S hop).
	for i := 0; i < len(res.RulingSet); i++ {
		for j := i + 1; j < len(res.RulingSet); j++ {
			if d := g.Dist(res.RulingSet[i], res.RulingSet[j]); d <= 3 {
				t.Errorf("centres %d,%d at G-distance %d (G_S neighbours)",
					res.RulingSet[i], res.RulingSet[j], d)
			}
		}
	}
}

// rulingSetScan is the ruling set as one bounded BFS per candidate: the
// reference rulingSet must match. It returns the centres' nodes, sorted.
func rulingSetScan(g *graph.Graph, gs *gsGraph, alpha int) []int {
	order := make([]int, len(gs.nodes))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return g.ID(gs.nodes[order[a]]) < g.ID(gs.nodes[order[b]])
	})
	selected := make([]bool, len(gs.nodes))
	var rs []int
	dist := make([]int, len(gs.nodes))
	for i := range dist {
		dist[i] = -1
	}
	for _, cand := range order {
		// BFS from cand to depth alpha-1 looking for an existing centre.
		ok := true
		queue := []int{cand}
		dist[cand] = 0
		visited := []int{cand}
		for qi := 0; qi < len(queue) && ok; qi++ {
			v := queue[qi]
			if selected[v] {
				ok = false
				break
			}
			if dist[v] == alpha-1 {
				continue
			}
			for _, un := range gs.row(v) {
				u := int(un)
				if dist[u] < 0 {
					dist[u] = dist[v] + 1
					visited = append(visited, u)
					queue = append(queue, u)
				}
			}
		}
		for _, v := range visited {
			dist[v] = -1
		}
		if ok {
			selected[cand] = true
			rs = append(rs, gs.nodes[cand])
		}
	}
	sort.Ints(rs)
	return rs
}

type namedGraph struct {
	name string
	g    *graph.Graph
}

// The incremental ruling set selects exactly the centres of the
// per-candidate BFS scan, on seeded families × seeds 1–6 at n = 3000 plus
// path, cycle and grid.
func TestRulingSetMatchesScan(t *testing.T) {
	graphs := []namedGraph{
		{"path", graph.Path(3000)},
		{"cycle", graph.Cycle(3000)},
		{"grid", graph.Grid(55, 55)},
	}
	for _, fam := range []string{"gnp", "ba", "disk", "uforest", "torus", "caterpillar"} {
		for seed := uint64(1); seed <= 6; seed++ {
			g, err := graph.Named(fam, 3000, seed)
			if err != nil {
				t.Fatal(err)
			}
			graphs = append(graphs, namedGraph{fmt.Sprintf("%s/seed%d", fam, seed), g})
		}
	}
	for _, tt := range graphs {
		gs := buildGS(tt.g, baseline.Greedy(tt.g))
		for _, alpha := range []int{1, 2, 3, 5, 12, 40} {
			var got []int
			for _, c := range rulingSet(tt.g, gs, alpha) {
				got = append(got, gs.nodes[c])
			}
			if want := rulingSetScan(tt.g, gs, alpha); !slices.Equal(got, want) {
				t.Errorf("%s α=%d: rulingSet selected %d centres, the scan %d, and the sets differ",
					tt.name, alpha, len(got), len(want))
			}
		}
	}
}

// gsDistances is all-pairs BFS on G_S rebuilt from G-distances alone,
// independent of buildGS. dist[i][j] is -1 when j is unreachable from i.
func gsDistances(g *graph.Graph, nodes []int) [][]int {
	k := len(nodes)
	adj := make([][]int, k)
	for i := range k {
		for j := i + 1; j < k; j++ {
			if d := g.Dist(nodes[i], nodes[j]); d >= 0 && d <= 3 {
				adj[i] = append(adj[i], j)
				adj[j] = append(adj[j], i)
			}
		}
	}
	dist := make([][]int, k)
	for s := range k {
		d := make([]int, k)
		for i := range d {
			d[i] = -1
		}
		d[s] = 0
		queue := []int{s}
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			for _, u := range adj[v] {
				if d[u] < 0 {
					d[u] = d[v] + 1
					queue = append(queue, u)
				}
			}
		}
		dist[s] = d
	}
	return dist
}

// The ruling set's (α, α−1) guarantee on small G_S, checked against an
// independent all-pairs BFS: centres are pairwise ≥ α apart and every
// member is within α−1 of a centre. The same distances check that G_S
// itself has exactly the distance-≤3 edges, each realized by a G-path.
func TestRulingSetGuarantee(t *testing.T) {
	graphs := []namedGraph{
		{"path60", graph.Path(60)},
		{"cycle45", graph.Cycle(45)},
		{"grid9x9", graph.Grid(9, 9)},
	}
	for seed := uint64(1); seed <= 3; seed++ {
		graphs = append(graphs,
			namedGraph{fmt.Sprintf("gnp150/seed%d", seed), graph.GNPConnected(150, 0.03, seed)},
			namedGraph{fmt.Sprintf("disk120/seed%d", seed), graph.UnitDiskConnected(120, 0.16, seed)})
	}
	for _, tt := range graphs {
		g, name := tt.g, tt.name
		gs := buildGS(g, baseline.Greedy(g))
		dist := gsDistances(g, gs.nodes)
		for a := range gs.nodes {
			var want []int32
			for b := range gs.nodes {
				if dist[a][b] == 1 {
					want = append(want, int32(b))
				}
			}
			if !slices.Equal(gs.row(a), want) {
				t.Fatalf("%s: G_S row %d = %v, want %v", name, a, gs.row(a), want)
			}
			for k := gs.off[a]; k < gs.off[a+1]; k++ {
				// The inner nodes run from one endpoint to the other, in
				// either direction.
				u, w := gs.nodes[a], gs.nodes[gs.adj[k]]
				var in []int
				for _, v := range gs.inner[k] {
					if v >= 0 {
						in = append(in, int(v))
					}
				}
				if !isPath(g, u, in, w) && !isPath(g, w, in, u) {
					t.Fatalf("%s: slot %d inner nodes %v do not realize edge %d-%d", name, k, in, u, w)
				}
			}
		}
		for _, alpha := range []int{1, 2, 3, 5} {
			centres := rulingSet(g, gs, alpha)
			for i, c := range centres {
				for _, d := range centres[i+1:] {
					if dd := dist[c][d]; dd >= 0 && dd < alpha {
						t.Errorf("%s α=%d: centres %d,%d at G_S distance %d", name, alpha, c, d, dd)
					}
				}
			}
			for v := range gs.nodes {
				best := -1
				for _, c := range centres {
					if d := dist[c][v]; d >= 0 && (best < 0 || d < best) {
						best = d
					}
				}
				if best < 0 || best > alpha-1 {
					t.Errorf("%s α=%d: member %d at G_S distance %d from the nearest centre", name, alpha, v, best)
				}
			}
		}
	}
}

// isPath reports whether from, via..., to is a walk in g.
func isPath(g *graph.Graph, from int, via []int, to int) bool {
	prev := from
	for _, v := range append(via, to) {
		if !g.HasEdge(prev, v) {
			return false
		}
		prev = v
	}
	return true
}

// A negative α is a config error from both entry points; 0 selects the
// default.
func TestAlphaValidation(t *testing.T) {
	g := graph.Path(20)
	ds := baseline.Greedy(g)
	for _, tt := range []struct {
		alpha int
		ok    bool
	}{{-1, false}, {-7, false}, {0, true}, {1, true}, {4, true}} {
		_, extendErr := Extend(g, ds, Params{Alpha: tt.alpha}, nil)
		_, solveErr := Solve(g, Params{Alpha: tt.alpha})
		for _, err := range []error{extendErr, solveErr} {
			if tt.ok && err != nil || !tt.ok && !errors.Is(err, congest.ErrConfig) {
				t.Errorf("α=%d: err %v, want ok=%v (else congest.ErrConfig)", tt.alpha, err, tt.ok)
			}
		}
	}
}

// BenchmarkExtend is Section 4 alone on the benchmark's graph: gnp
// n = 16 000, seed 1, with the greedy dominating set as S.
func BenchmarkExtend(b *testing.B) {
	g, err := graph.Named("gnp", 16000, 1)
	if err != nil {
		b.Fatal(err)
	}
	ds := baseline.Greedy(g)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Extend(g, ds, Params{}, nil); err != nil {
			b.Fatal(err)
		}
	}
}
