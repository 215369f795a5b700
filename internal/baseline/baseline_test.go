package baseline

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"congestds/internal/fractional"
	"congestds/internal/graph"
	"congestds/internal/verify"
)

func TestGreedyDominates(t *testing.T) {
	for _, tt := range []struct {
		name string
		g    *graph.Graph
	}{
		{"star", graph.Star(12)},
		{"path", graph.Path(17)},
		{"cycle", graph.Cycle(11)},
		{"grid", graph.Grid(5, 6)},
		{"gnp", graph.GNPConnected(60, 0.08, 2)},
		{"single", graph.Path(1)},
	} {
		t.Run(tt.name, func(t *testing.T) {
			set := Greedy(tt.g)
			if !verify.IsDominatingSet(tt.g, set) {
				t.Fatal("greedy output not dominating")
			}
		})
	}
}

func TestGreedyOptimalOnEasyGraphs(t *testing.T) {
	if got := len(Greedy(graph.Star(10))); got != 1 {
		t.Errorf("greedy on star: %d, want 1", got)
	}
	if got := len(Greedy(graph.Complete(7))); got != 1 {
		t.Errorf("greedy on complete: %d, want 1", got)
	}
}

func TestExactKnownOptima(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
		want int
	}{
		{"star9", graph.Star(9), 1},
		{"path2", graph.Path(2), 1},
		{"path7", graph.Path(7), 3},
		{"cycle6", graph.Cycle(6), 2},
		{"cycle9", graph.Cycle(9), 3},
		{"grid3x3", graph.Grid(3, 3), 3},
		{"complete5", graph.Complete(5), 1},
		{"caterpillar", graph.Caterpillar(4, 2), 4},
		{"hypercube3", graph.Hypercube(3), 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			set := Exact(tt.g)
			if !verify.IsDominatingSet(tt.g, set) {
				t.Fatal("exact output not dominating")
			}
			if len(set) != tt.want {
				t.Errorf("|OPT|=%d, want %d", len(set), tt.want)
			}
		})
	}
}

func TestExactNeverWorseThanGreedy(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		g := graph.GNPConnected(24, 0.15, seed)
		e, gr := Exact(g), Greedy(g)
		if len(e) > len(gr) {
			t.Errorf("seed %d: exact %d > greedy %d", seed, len(e), len(gr))
		}
		if !verify.IsDominatingSet(g, e) {
			t.Error("exact not dominating")
		}
	}
}

// Greedy respects the classical ln(Δ+1)+1 bound against the exact optimum.
func TestGreedyWithinLnBound(t *testing.T) {
	for seed := uint64(0); seed < 3; seed++ {
		g := graph.GNPConnected(22, 0.2, seed)
		gr, ex := Greedy(g), Exact(g)
		bound := math.Log(float64(g.MaxDegree()+1)) + 1
		if float64(len(gr)) > bound*float64(len(ex))+1e-9 {
			t.Errorf("seed %d: greedy %d > (ln Δ̃+1)·OPT = %.2f·%d",
				seed, len(gr), bound, len(ex))
		}
	}
}

func TestRandomizedOneShotDominates(t *testing.T) {
	g := graph.GNPConnected(30, 0.2, 7)
	ctx := fractional.ScaleFor(g.N())
	fds := fractional.NewFDS(ctx, g.N())
	minInc := g.N()
	for v := 0; v < g.N(); v++ {
		if d := g.Degree(v) + 1; d < minInc {
			minInc = d
		}
	}
	for v := range fds.X {
		fds.X[v] = ctx.FromRatio(1, uint64(minInc), true)
	}
	r := rand.New(rand.NewPCG(1, 1))
	for trial := 0; trial < 20; trial++ {
		set := RandomizedOneShot(g, fds, r)
		if !verify.IsDominatingSet(g, set) {
			t.Fatal("randomized one-shot output not dominating")
		}
	}
}

// greedyScan is Greedy with the argmax as a scan over all n nodes per
// pick: the reference the heap-driven Greedy must match.
func greedyScan(g *graph.Graph) []int {
	n := g.N()
	covered := make([]bool, n)
	inSet := make([]bool, n)
	gain := make([]int, n)
	for v := 0; v < n; v++ {
		gain[v] = g.Degree(v) + 1
	}
	remaining := n
	var set []int
	for remaining > 0 {
		best := -1
		for v := 0; v < n; v++ {
			if inSet[v] || gain[v] == 0 {
				continue
			}
			if best < 0 || gain[v] > gain[best] ||
				(gain[v] == gain[best] && g.ID(v) < g.ID(best)) {
				best = v
			}
		}
		if best < 0 {
			break
		}
		inSet[best] = true
		set = append(set, best)
		cover := func(u int) {
			if covered[u] {
				return
			}
			covered[u] = true
			remaining--
			gain[u]--
			for _, w := range g.Neighbors(u) {
				gain[w]--
			}
		}
		cover(best)
		for _, u := range g.Neighbors(best) {
			cover(int(u))
		}
	}
	sort.Ints(set)
	return set
}

// Greedy picks exactly the nodes of the scan, over seeded families whose
// default IDs are a scrambled permutation, so the ID tie-break is live.
func TestGreedyMatchesScan(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"path", graph.Path(3000)},
		{"cycle", graph.Cycle(3000)},
		{"grid", graph.Grid(55, 55)},
		{"empty", graph.Path(0)},
	}
	for _, fam := range []string{"gnp", "ba", "disk", "uforest", "torus", "caterpillar"} {
		for seed := uint64(1); seed <= 6; seed++ {
			g, err := graph.Named(fam, 3000, seed)
			if err != nil {
				t.Fatal(err)
			}
			graphs = append(graphs, struct {
				name string
				g    *graph.Graph
			}{fmt.Sprintf("%s/seed%d", fam, seed), g})
		}
	}
	for _, tt := range graphs {
		if got, want := Greedy(tt.g), greedyScan(tt.g); !slices.Equal(got, want) {
			t.Errorf("%s: Greedy %d nodes, scan %d", tt.name, len(got), len(want))
		}
	}
}

// BenchmarkGreedy is the greedy baseline on the benchmark's graph: gnp
// n = 16 000, seed 1.
func BenchmarkGreedy(b *testing.B) {
	g, err := graph.Named("gnp", 16000, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		Greedy(g)
	}
}
