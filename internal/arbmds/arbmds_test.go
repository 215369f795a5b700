package arbmds

import (
	"testing"

	"congestds/internal/congest"
	"congestds/internal/graph"
	"congestds/internal/verify"
)

// TestSolveDominatesAllFamilies: the output must be a dominating set on
// every registered graph family, including disconnected graphs and graphs
// with isolated nodes.
func TestSolveDominatesAllFamilies(t *testing.T) {
	for _, fam := range graph.Families() {
		g, err := graph.Named(fam, 120, 3)
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		res, err := Solve(g, Params{})
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		if !verify.IsDominatingSet(g, res.Set) {
			t.Errorf("%s: output is not a dominating set", fam)
		}
	}
	for _, g := range []*graph.Graph{
		graph.GNP(40, 0.04, 5), // disconnected
		graph.GNP(24, 0.03, 7), // isolated nodes
		graph.Path(1),
		graph.Path(2),
	} {
		res, err := Solve(g, Params{})
		if err != nil {
			t.Fatal(err)
		}
		if !verify.IsDominatingSet(g, res.Set) {
			t.Errorf("graph %v: not dominating", g)
		}
	}
}

// TestSolveCrossEngineIdentical: Solve must return the identical set and
// metrics on both engines (native stepped vs blocking adapter).
func TestSolveCrossEngineIdentical(t *testing.T) {
	g := graph.UnionForests(300, 3, 11)
	ref, err := Solve(g, Params{Sim: congest.EngineGoroutine})
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range congest.Engines() {
		res, err := Solve(g, Params{Sim: eng})
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		if res.Metrics != ref.Metrics {
			t.Errorf("%v: metrics %+v != reference %+v", eng, res.Metrics, ref.Metrics)
		}
		if len(res.Set) != len(ref.Set) {
			t.Fatalf("%v: |set|=%d != reference %d", eng, len(res.Set), len(ref.Set))
		}
		for i := range res.Set {
			if res.Set[i] != ref.Set[i] {
				t.Fatalf("%v: set[%d]=%d != reference %d", eng, i, res.Set[i], ref.Set[i])
			}
		}
	}
}

// TestBlockingTwinMatchesStepped: the independently written blocking
// program must be byte-identical to the stepped form — same set, same
// metrics — on every engine (the conformance suite repeats this over its
// whole corpus; this is the package-local pin).
func TestBlockingTwinMatchesStepped(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.UnionForests(150, 2, 5),
		graph.GridDiagonals(9, 9),
		graph.RandomOutDAG(150, 3, 5),
		graph.Caterpillar(20, 3),
		graph.GNP(60, 0.05, 9),
	} {
		stepRes, err := Solve(g, Params{})
		if err != nil {
			t.Fatal(err)
		}
		for _, eng := range congest.Engines() {
			inD := make([]bool, g.N())
			net := congest.NewNetwork(g, congest.Config{Engine: eng})
			m, err := net.Run(BlockingProgram(g, 0.5, inD))
			if err != nil {
				t.Fatalf("%v: %v", eng, err)
			}
			if m != stepRes.Metrics {
				t.Errorf("%v: blocking metrics %+v != stepped %+v", eng, m, stepRes.Metrics)
			}
			for v := range inD {
				if inD[v] != stepRes.InD[v] {
					t.Fatalf("%v: node %d membership diverges between forms", eng, v)
				}
			}
		}
	}
}

// TestRoundsIndependentOfN is the headline property: on families whose max
// degree does not grow with n, the round count must be exactly
// 4·|schedule| — the same number at 100 nodes and at 40 000.
func TestRoundsIndependentOfN(t *testing.T) {
	small := graph.GridDiagonals(10, 10)
	large := graph.GridDiagonals(200, 200)
	if small.MaxDegree() != large.MaxDegree() {
		t.Fatalf("Δ differs: %d vs %d", small.MaxDegree(), large.MaxDegree())
	}
	rs, err := Solve(small, Params{Sim: congest.EngineStepped})
	if err != nil {
		t.Fatal(err)
	}
	rl, err := Solve(large, Params{Sim: congest.EngineStepped})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Metrics.Rounds != rl.Metrics.Rounds {
		t.Errorf("rounds depend on n: %d (n=%d) vs %d (n=%d)",
			rs.Metrics.Rounds, small.N(), rl.Metrics.Rounds, large.N())
	}
	if want := 4 * len(rs.Thresholds); rs.Metrics.Rounds != want {
		t.Errorf("rounds=%d, want 4·|schedule|=%d", rs.Metrics.Rounds, want)
	}
	if bound := verify.RoundBoundArb(small.MaxDegree(), 0.5); rs.Metrics.Rounds > bound {
		t.Errorf("rounds=%d exceed the claimed bound %d", rs.Metrics.Rounds, bound)
	}
}

// TestThresholdSchedule pins the schedule's invariants: strictly
// decreasing, starts at Δ̃, always ends at 1, length O(ε⁻¹·log Δ̃).
func TestThresholdSchedule(t *testing.T) {
	for _, delta := range []int{0, 1, 2, 7, 100, 100000} {
		for _, eps := range []float64{0.1, 0.5, 1} {
			ths := Thresholds(delta, eps)
			if ths[0] != delta+1 && !(delta == 0 && ths[0] == 1) {
				t.Errorf("Δ=%d ε=%v: schedule starts at %d, want Δ̃=%d", delta, eps, ths[0], delta+1)
			}
			if ths[len(ths)-1] != 1 {
				t.Errorf("Δ=%d ε=%v: schedule ends at %d, want 1", delta, eps, ths[len(ths)-1])
			}
			for i := 1; i < len(ths); i++ {
				if ths[i] >= ths[i-1] {
					t.Errorf("Δ=%d ε=%v: schedule not strictly decreasing at %d", delta, eps, i)
				}
			}
			if bound := verify.RoundBoundArb(delta, eps); 4*len(ths) > bound {
				t.Errorf("Δ=%d ε=%v: 4·|schedule|=%d exceeds claimed bound %d", delta, eps, 4*len(ths), bound)
			}
		}
	}
}

// TestThresholdsTinyEpsTerminates is the regression for the review
// finding that 0 < ε < 2⁻⁵³ made 1+ε collapse to 1.0 in float64 and the
// schedule loop spin forever: any ε is clamped to MinEps, so the schedule
// stays finite and still ends at 1.
func TestThresholdsTinyEpsTerminates(t *testing.T) {
	for _, eps := range []float64{1e-300, 1e-17, 1e-9, 0.0099} {
		ths := Thresholds(1000, eps)
		want := Thresholds(1000, MinEps)
		if len(ths) != len(want) {
			t.Errorf("eps=%g: |schedule|=%d, want the MinEps schedule length %d", eps, len(ths), len(want))
		}
		if ths[len(ths)-1] != 1 {
			t.Errorf("eps=%g: schedule ends at %d, want 1", eps, ths[len(ths)-1])
		}
	}
	// And the clamped schedule still fits the (equally clamped) round bound.
	if got, bound := 4*len(Thresholds(1000, 1e-17)), verify.RoundBoundArb(999, 1e-17); got > bound {
		t.Errorf("clamped schedule rounds %d exceed clamped bound %d", got, bound)
	}
}

// TestApproximationWithinClaim checks the instantiated O(α) claim on the
// bounded-arboricity families at two sizes each, against the dual-packing
// lower bound (conservative: LB ≤ OPT).
func TestApproximationWithinClaim(t *testing.T) {
	for _, tc := range []struct {
		name string
		make func(n int) *graph.Graph
	}{
		{"uforest", func(n int) *graph.Graph { return graph.UnionForests(n, 3, 7) }},
		{"gridx", func(n int) *graph.Graph { s := isqrt(n); return graph.GridDiagonals(s, s) }},
		{"adag", func(n int) *graph.Graph { return graph.RandomOutDAG(n, 3, 7) }},
		{"caterpillar", func(n int) *graph.Graph { return graph.Caterpillar(n/5, 4) }},
		{"path", graph.Path},
	} {
		for _, n := range []int{64, 400} {
			g := tc.make(n)
			res, err := Solve(g, Params{})
			if err != nil {
				t.Fatalf("%s/%d: %v", tc.name, n, err)
			}
			cert := verify.CertifyArb(g, res.Set, 0.5)
			if !cert.OK {
				t.Errorf("%s/%d: certificate failed: %v", tc.name, n, cert)
			}
		}
	}
}

// TestGreedyComparableQuality is a sanity guard against silent quality
// regressions: on the bounded-arboricity suite the peeling set should stay
// within a small factor of the sequential greedy baseline.
func TestGreedyComparableQuality(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.UnionForests(400, 3, 13),
		graph.GridDiagonals(20, 20),
		graph.RandomOutDAG(400, 3, 13),
	} {
		res, err := Solve(g, Params{})
		if err != nil {
			t.Fatal(err)
		}
		greedy := greedySize(g)
		if len(res.Set) > 4*greedy {
			t.Errorf("%v: |arbmds|=%d vs greedy %d — worse than 4×", g, len(res.Set), greedy)
		}
	}
}

// greedySize is a local max-coverage greedy (kept independent of
// internal/baseline to avoid a dependency edge from this package).
func greedySize(g *graph.Graph) int {
	n := g.N()
	covered := make([]bool, n)
	size, left := 0, n
	for left > 0 {
		best, gain := -1, 0
		for v := 0; v < n; v++ {
			c := 0
			if !covered[v] {
				c++
			}
			for _, u := range g.Neighbors(v) {
				if !covered[u] {
					c++
				}
			}
			if c > gain {
				best, gain = v, c
			}
		}
		if !covered[best] {
			covered[best] = true
			left--
		}
		for _, u := range g.Neighbors(best) {
			if !covered[u] {
				covered[u] = true
				left--
			}
		}
		size++
	}
	return size
}

func isqrt(n int) int {
	s := 1
	for (s+1)*(s+1) <= n {
		s++
	}
	return s
}
