// Package arbmds implements a deterministic peeling-based CONGEST
// algorithm for minimum dominating set on graphs of bounded arboricity,
// following the skeleton of Dory, Ghaffari and Ilchi, "Near-Optimal
// Distributed Dominating Set in Bounded Arboricity Graphs"
// (arXiv:2206.05174, PODC 2022): an O(α)-approximation in O(ε⁻¹·log Δ)
// rounds — crucially, a round complexity independent of n, which makes it
// the natural million-node stress workload for the stepped engine (the
// source paper's LP-rounding pipeline needs rounds growing with log n and
// far heavier machinery).
//
// # Algorithm
//
// All nodes know Δ (the standard known-max-degree assumption) and sweep a
// shared threshold schedule θ = Δ̃, Δ̃/(1+ε), Δ̃/(1+ε)², …, 1 with
// Δ̃ = Δ+1. Call a node white while it is not yet dominated, and let its
// support s(v) = |{u ∈ N⁺(v) : u white}| be the number of nodes it would
// newly cover. Each threshold phase takes exactly 4 CONGEST rounds:
//
//	report:   nodes covered in the previous phase announce it, so every
//	          node's s is exact before candidacy is decided;
//	offer:    nodes with s ≥ θ broadcast s (they are candidates);
//	nominate: each white node nominates the best candidate in its closed
//	          neighbourhood — max s, ties to the larger ID — with itself
//	          eligible when it is a candidate;
//	join:     every nominated candidate joins the dominating set and
//	          broadcasts the fact (tagged with whether it was itself still
//	          white), covering all its white neighbours.
//
// Every message is at most one identifier-sized integer, well inside the
// CONGEST budget.
//
// After the phase at threshold θ, no node has s ≥ θ: a white node with a
// ≥θ-candidate in its closed neighbourhood always nominates one, and a
// nominated candidate always joins, so any such white node gets covered in
// the phase. Two consequences drive the analysis: entering the phase at
// threshold θ every node covers < (1+ε)θ+1 white nodes, so
// OPT ≥ |W|/((1+ε)θ+1); and each joiner is nominated by a distinct white
// node that is covered within the phase, so joiners are charged to
// freshly-covered whites. On an arboricity-α graph the candidate/white
// incidence counting (every subgraph on k nodes has ≤ αk edges) bounds the
// per-phase joiners by O(α)·OPT, giving a worst-case O(α·ε⁻¹·log Δ̃)
// guarantee for this simultaneous-join variant; the refined charging of
// Dory–Ghaffari–Ilchi tightens the total to O(α)·OPT. The E-arb experiment
// suite (internal/experiments) checks the instantiated O(α) claim —
// size ≤ (2+ε)(2α̂+1)·LB with α̂ the measured degeneracy and LB the dual
// packing bound — and that measured rounds equal 4·|schedule|, independent
// of n.
//
// The final phase runs at θ = 1, where every white node is its own
// candidate, so the algorithm always terminates with a dominating set —
// no separate cleanup step.
//
// The native implementation is a congest.StepProgram (explicit per-node
// state, no goroutine stacks), so Solve runs million-node instances on
// EngineStepped in bounded memory; an independently written blocking twin
// (blocking.go) backs the differential conformance corpus.
package arbmds

import (
	"context"
	"fmt"
	"math"
	"sort"

	"congestds/internal/congest"
	"congestds/internal/graph"
	"congestds/internal/verify"
)

// Params configures Solve.
type Params struct {
	// Eps is the threshold decay parameter: thresholds shrink by (1+ε) per
	// phase, trading rounds (O(ε⁻¹·log Δ)) against the constant in the
	// approximation. Zero means 0.5; positive values below MinEps are
	// clamped to MinEps.
	Eps float64
	// Sim selects the congest execution engine (congest.EngineStepped for
	// large instances). Zero means the goroutine reference engine.
	Sim congest.Engine
	// MaxRounds clamps the simulated run (zero: the simulator default).
	// Exposed for failure-injection tests.
	MaxRounds int
	// Ctx, when non-nil, is the only way to stop the run early: its
	// cancellation or deadline (a wall-clock budget is
	// context.WithTimeout) is checked at round boundaries and surfaces as
	// congest.ErrDeadline with honest metrics.
	Ctx context.Context
	// CkptPath, when set, checkpoints the run to this file every CkptEvery
	// rounds and resumes from it when the file already holds a checkpoint
	// of this graph. Requires Sim == congest.EngineStepped (the native
	// form); Solve rejects the combination otherwise rather than silently
	// running unprotected.
	CkptPath string
	// CkptEvery is the checkpoint cadence in rounds (zero means 1).
	CkptEvery int
	// Observer, when non-nil, receives per-round telemetry from the run
	// (see congest.Observer); attaching one never changes the outcome.
	Observer congest.Observer
}

// MinEps is the smallest accepted threshold decay: below it the schedule
// would have thousands of phases per unit of log Δ (and at float64
// granularity 1+ε can collapse to 1, which would never terminate), so
// Thresholds clamps ε into [MinEps, ∞) and Params treats anything ≤ 0 as
// the 0.5 default. Aliases verify.ArbMinEps so verify.RoundBoundArb
// clamps identically.
const MinEps = verify.ArbMinEps

// withDefaults normalizes the zero values.
func (p Params) withDefaults() Params {
	if p.Eps <= 0 {
		p.Eps = 0.5
	}
	return p
}

// Result is the outcome of a run.
type Result struct {
	// Set is the dominating set, ascending.
	Set []int
	// InD is the indicator vector behind Set.
	InD []bool
	// Thresholds is the phase schedule the nodes swept (4 rounds each).
	Thresholds []int
	// Metrics is the simulator's cost account; Metrics.Rounds is always
	// 4·len(Thresholds), independent of n.
	Metrics congest.Metrics
}

// Thresholds returns the shared phase schedule for a graph of maximum
// degree delta: strictly decreasing integer thresholds from Δ̃ = delta+1
// down to (always including) 1, shrinking by (1+ε) per step. Its length is
// the phase count, ⌈log_{1+ε} Δ̃⌉+O(1) — a pure function of (Δ, ε), so
// every node computes it locally under the known-Δ assumption and the
// round count never depends on n.
func Thresholds(delta int, eps float64) []int {
	if eps <= 0 {
		eps = 0.5
	}
	if eps < MinEps {
		eps = MinEps
	}
	deltaTilde := delta + 1
	if deltaTilde < 1 {
		deltaTilde = 1
	}
	var ths []int
	x := float64(deltaTilde)
	for {
		th := int(math.Ceil(x))
		if th < 1 {
			th = 1
		}
		if len(ths) == 0 || th < ths[len(ths)-1] {
			ths = append(ths, th)
		}
		if th == 1 {
			return ths
		}
		x /= 1 + eps
	}
}

// Solve runs the peeling algorithm on g under the selected simulator
// engine and returns the dominating set with the run's cost metrics. The
// program runs natively as a StepProgram on congest.EngineStepped and via
// the blocking adapter elsewhere, with byte-identical results.
func Solve(g *graph.Graph, p Params) (*Result, error) {
	p = p.withDefaults()
	net := congest.NewNetwork(g, congest.Config{
		Engine: p.Sim, MaxRounds: p.MaxRounds, Ctx: p.Ctx, Observer: p.Observer,
	})
	inD := make([]bool, g.N())
	var m congest.Metrics
	var err error
	if p.CkptPath != "" {
		if p.Sim != congest.EngineStepped {
			return nil, fmt.Errorf("%w: arbmds: CkptPath requires Sim == congest.EngineStepped (got %v)", congest.ErrConfig, p.Sim)
		}
		every := p.CkptEvery
		if every <= 0 {
			every = 1
		}
		m, err = net.RunSteppedCkpt(StepFactory(g, p.Eps, inD),
			congest.CkptSpec{Path: p.CkptPath, Every: every, Host: &boolsHost{xs: inD}})
	} else {
		m, err = net.RunStepped(StepFactory(g, p.Eps, inD))
	}
	if err != nil {
		return nil, err
	}
	res := &Result{InD: inD, Thresholds: Thresholds(g.MaxDegree(), p.Eps), Metrics: m}
	for v, in := range inD {
		if in {
			res.Set = append(res.Set, v)
		}
	}
	sort.Ints(res.Set)
	return res, nil
}
