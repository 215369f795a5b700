// Package baseline provides the comparison algorithms for the experiment
// harness: the classical sequential greedy (the ln(Δ+1)-approximation of
// [Joh74] the paper's guarantee is measured against), an exact
// branch-and-bound solver for small instances, and the randomized rounding
// baseline that the paper's algorithms derandomize.
package baseline

import (
	"math"
	"math/rand/v2"
	"sort"

	"congestds/internal/fixpoint"
	"congestds/internal/fractional"
	"congestds/internal/graph"
	"congestds/internal/rounding"
)

// Greedy computes the classical greedy dominating set: repeatedly add the
// node covering the most uncovered nodes (ties by smaller ID). Guarantees a
// ln(Δ+1)+1 approximation [Joh74].
//
// The argmax is a lazy max-heap keyed (gain desc, ID asc): gains only
// fall, so a stored gain bounds the current one, and a top entry whose
// stored gain is current is the true argmax. A stale top is re-keyed in
// place. The top is never a node of gain 0 while a node is uncovered,
// since an uncovered node's gain counts itself.
func Greedy(g *graph.Graph) []int {
	n := g.N()
	covered := make([]bool, n)
	gain := make([]int, n)
	h := gainHeap{g: g, items: make([]gainItem, n)}
	for v := 0; v < n; v++ {
		gain[v] = g.Degree(v) + 1
		h.items[v] = gainItem{v: v, gain: gain[v]}
	}
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	remaining := n
	var set []int
	for remaining > 0 {
		top := h.items[0]
		if cur := gain[top.v]; cur != top.gain {
			h.items[0].gain = cur
			h.down(0)
			continue
		}
		best := top.v
		set = append(set, best)
		cover := func(u int) {
			if covered[u] {
				return
			}
			covered[u] = true
			remaining--
			// u no longer contributes to the gain of its dominators.
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

// gainItem is a node with the gain it had when last keyed.
type gainItem struct{ v, gain int }

// gainHeap is a binary max-heap of nodes ordered (gain desc, ID asc, node
// asc). Keys only fall, so sifting down is the only repair it needs.
type gainHeap struct {
	g     *graph.Graph
	items []gainItem
}

func (h *gainHeap) before(a, b gainItem) bool {
	if a.gain != b.gain {
		return a.gain > b.gain
	}
	if ia, ib := h.g.ID(a.v), h.g.ID(b.v); ia != ib {
		return ia < ib
	}
	return a.v < b.v
}

func (h *gainHeap) down(i int) {
	for {
		top := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(h.items) && h.before(h.items[c], h.items[top]) {
				top = c
			}
		}
		if top == i {
			return
		}
		h.items[i], h.items[top] = h.items[top], h.items[i]
		i = top
	}
}

// Exact computes a minimum dominating set by branch and bound with greedy
// upper bound and fractional-packing pruning. Intended for n ≤ ~60;
// complexity is exponential in the worst case.
func Exact(g *graph.Graph) []int {
	n := g.N()
	if n == 0 {
		return nil
	}
	best := Greedy(g)
	covered := make([]int, n) // count of dominators in current partial set
	var cur []int

	// Order candidate nodes by decreasing inclusive degree for strong
	// branching.
	var rec func(firstUncovered int)
	rec = func(firstUncovered int) {
		if len(cur) >= len(best) {
			return
		}
		// Find the lowest uncovered node.
		u := -1
		for v := firstUncovered; v < n; v++ {
			if covered[v] == 0 {
				u = v
				break
			}
		}
		if u == -1 {
			best = append(best[:0], cur...)
			return
		}
		// Lower-bound prune: remaining uncovered nodes / Δ̃.
		uncov := 0
		for v := u; v < n; v++ {
			if covered[v] == 0 {
				uncov++
			}
		}
		lb := int(math.Ceil(float64(uncov) / float64(g.MaxDegree()+1)))
		if len(cur)+lb >= len(best) {
			return
		}
		// Branch: some dominator of u must be in the set.
		cands := g.InclusiveNeighbors(nil, u)
		// Try higher-coverage candidates first.
		sort.Slice(cands, func(a, b int) bool {
			return g.Degree(int(cands[a])) > g.Degree(int(cands[b]))
		})
		for _, cn := range cands {
			c := int(cn)
			cur = append(cur, c)
			covered[c]++
			for _, w := range g.Neighbors(c) {
				covered[w]++
			}
			rec(u)
			covered[c]--
			for _, w := range g.Neighbors(c) {
				covered[w]--
			}
			cur = cur[:len(cur)-1]
		}
	}
	rec(0)
	sort.Ints(best)
	return best
}

// RandomizedOneShot is the randomized baseline the paper derandomizes: given
// a fractional dominating set, run the one-shot abstract rounding process
// with truly random coins and return the resulting dominating set. Each call
// consumes randomness from r.
func RandomizedOneShot(g *graph.Graph, fds *fractional.CFDS, r *rand.Rand) []int {
	ctx := fds.Ctx
	ln := ctx.FromFloat(math.Log(float64(g.MaxDegree() + 2)))
	inst := rounding.OneShotOnGraph(g, fds, ln)
	out := inst.Execute(func(j int) bool {
		// Uniform threshold sampling: true with probability P[j] exactly.
		return fixpoint.Value(r.Uint64N(uint64(ctx.One()))) < inst.P[j]
	})
	var set []int
	for v, val := range out.Values {
		if val == ctx.One() {
			set = append(set, v)
		}
	}
	return set
}
