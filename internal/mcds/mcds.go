// Package mcds implements a connected-dominating-set solver following the
// two-phase structure of Ghaffari, "Near-Optimal Distributed Approximation
// of Minimum-Weight Connected Dominating Set" (arXiv:1404.7559, ICALP
// 2014): first construct a dominating set, then connect the dominators via
// shortest dominator-to-dominator paths, charging the connectors against
// the LP lower bound. It is the third algorithm family in the repository
// (after the source paper's pipeline in internal/mds+cds and the
// bounded-arboricity peeling in internal/arbmds), and like arbmds it is
// written natively as a congest.StepProgram with an independently written
// blocking twin for differential testing, so million-node instances run on
// congest.EngineStepped in bounded memory.
//
// # Restrictions and assumptions
//
// Ghaffari's paper solves the minimum-WEIGHT CDS problem. This
// implementation is the unit-weight restriction: internal/graph carries no
// edge or node weights, so |CDS| stands in for the weight and the LP lower
// bound specializes to verify.DualPackingLB (a feasible dual packing for
// the unweighted domination LP; OPT_CDS ≥ OPT_DS ≥ LB). Extending
// internal/graph with weights would generalize phase 1 to a weighted
// greedy and the charge to a weighted dual — the protocol skeleton below
// would not change.
//
// Nodes know n and Δ (the repository-wide standard assumption) and an
// upper bound D̂ on the network diameter (Params.DiamBound; the known-D
// assumption common in CONGEST literature — D̂ = n always works and is the
// default, callers with topology knowledge pass a tighter bound to cut the
// orientation phase short).
//
// # Algorithm
//
// Phase 1 — dominate (4·|schedule| rounds, a pure function of (Δ, ε)):
// the nominated threshold-sweep greedy. Thresholds sweep
// Δ̃, Δ̃/(1+ε), …, 1; a node's support s(v) counts the white (not yet
// dominated) nodes in its closed neighbourhood; each threshold phase runs
// the report/offer/nominate/join segments exactly as the bounded-arboricity
// peeling does (the schedule and the 4-segment protocol are shared with
// internal/arbmds — on general graphs the same protocol is the classic
// distributed greedy whose size tracks the (1+ε)(1+ln Δ̃)·OPT regime the
// E-mcds experiments check empirically against the dual-packing LB).
//
// Phase 2 — orient (D̂ rounds): a flood-min BFS. Every node floods the
// smallest identifier it has seen together with its distance from that
// node; when the flood stabilizes every node knows its parent toward the
// BFS tree rooted at the minimum-ID node of its component. Messages carry
// one ID and one distance, within the CONGEST budget.
//
// Phase 3 — connect (2 rounds): every dominator at BFS depth ≥ 1 sends a
// connect token to its parent; a node receiving a token joins the CDS and
// forwards the token one more hop toward the root. This realizes, for each
// dominator v, the shortest dominator-to-dominator path of length ≤ 3 from
// v to a dominator strictly closer to the root: v's grandparent g is
// dominated by some u ∈ N⁺(g) with depth(u) < depth(v), and v–parent–g–u
// lies inside the CDS. Induction over depths makes the CDS connected
// (per component), and each dominator adds at most 2 connectors, so
// |CDS| ≤ 3·|DS| + 1 — the same shape as the source paper's Section 4
// bound, with the connector paths charged against the LP lower bound in
// the E-mcds tables (ratio ≤ verify.MCDSClaimBound).
//
// The full run takes exactly 4·|schedule| + D̂ + 2 rounds.
package mcds

import (
	"context"
	"fmt"
	"sort"

	"congestds/internal/arbmds"
	"congestds/internal/congest"
	"congestds/internal/graph"
	"congestds/internal/verify"
)

// Params configures Solve and Connect.
type Params struct {
	// Eps is the threshold decay of the dominating phase, exactly as in
	// arbmds.Params: zero means 0.5, values below arbmds.MinEps are clamped.
	Eps float64
	// DiamBound is D̂, the known upper bound on the graph diameter that
	// sizes the orientation phase. Zero means n (always safe); callers with
	// topology knowledge (e.g. 2·ecc(v)+2 from a host-side BFS, see
	// graph.Eccentricity) pass a tighter bound.
	DiamBound int
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
	// Observer, when non-nil, receives per-round telemetry from the runs
	// (see congest.Observer); attaching one never changes the outcome.
	Observer congest.Observer
}

// withDefaults normalizes the zero values against the target graph.
func (p Params) withDefaults(g *graph.Graph) Params {
	if p.Eps <= 0 {
		p.Eps = 0.5
	}
	if p.DiamBound <= 0 {
		p.DiamBound = g.N()
		if p.DiamBound < 1 {
			p.DiamBound = 1
		}
	}
	return p
}

// Result is the outcome of a run.
type Result struct {
	// CDS is the connected dominating set, ascending.
	CDS []int
	// DS is the phase-1 dominating set behind it, ascending.
	DS []int
	// InCDS and InD are the indicator vectors behind CDS and DS.
	InCDS, InD []bool
	// Thresholds is the phase-1 schedule (4 rounds per threshold).
	Thresholds []int
	// DiamBound is the D̂ the orientation phase actually used.
	DiamBound int
	// Metrics is the simulator's cost account. For Solve,
	// Metrics.Rounds = 4·len(Thresholds) + DiamBound + 2 exactly.
	Metrics congest.Metrics
}

// Thresholds returns the dominating phase's threshold schedule — the same
// schedule the bounded-arboricity peeling uses, a pure function of (Δ, ε).
func Thresholds(delta int, eps float64) []int {
	return arbmds.Thresholds(delta, eps)
}

// Solve computes a connected dominating set of the connected graph g under
// the selected engine. The program runs natively as a StepProgram on
// congest.EngineStepped and via the blocking adapter elsewhere, with
// byte-identical results. The returned set is verified connected and
// dominating before Solve returns (a linear-time check; callers wanting
// the ratio certificate run verify.CertifyCDS on top).
func Solve(g *graph.Graph, p Params) (*Result, error) {
	if g.N() == 0 {
		return &Result{}, nil
	}
	if !g.IsConnected() {
		return nil, fmt.Errorf("mcds: graph is not connected")
	}
	p = p.withDefaults(g)
	net := congest.NewNetwork(g, congest.Config{
		Engine: p.Sim, MaxRounds: p.MaxRounds, Ctx: p.Ctx, Observer: p.Observer,
	})
	inD := make([]bool, g.N())
	inCDS := make([]bool, g.N())
	m, err := net.RunStepped(StepFactory(g, p.Eps, p.DiamBound, inD, inCDS))
	if err != nil {
		return nil, err
	}
	res := assemble(g, inD, inCDS, p, m)
	if err := verify.CheckCDS(g, res.CDS); err != nil {
		return nil, fmt.Errorf("mcds: internal: %w (DiamBound %d below the true diameter?)", err, p.DiamBound)
	}
	return res, nil
}

// Connect turns an existing dominating set into a connected dominating set
// by running the orientation and connection phases alone — the CDS
// connector search in native StepProgram form (the blocking host-level
// construction lives in internal/cds).
func Connect(g *graph.Graph, ds []int, p Params) (*Result, error) {
	if g.N() == 0 {
		return &Result{}, nil
	}
	if v := verify.FirstUndominated(g, ds); v != -1 {
		return nil, fmt.Errorf("mcds: input set does not dominate node %d", v)
	}
	p = p.withDefaults(g)
	inD := make([]bool, g.N())
	for _, v := range ds {
		inD[v] = true
	}
	inCDS := make([]bool, g.N())
	net := congest.NewNetwork(g, congest.Config{
		Engine: p.Sim, MaxRounds: p.MaxRounds, Ctx: p.Ctx, Observer: p.Observer,
	})
	m, err := net.RunStepped(ConnectStepFactory(g, inD, p.DiamBound, inCDS))
	if err != nil {
		return nil, err
	}
	res := assemble(g, inD, inCDS, p, m)
	// Componentwise check: Connect accepts disconnected graphs (one CDS
	// per component), and this is the guard that catches a DiamBound below
	// the true diameter there — the in-protocol assertions cannot, because
	// a quiesced-too-early flood sends nothing extra.
	if err := verify.CheckCDSComponents(g, res.CDS); err != nil {
		return nil, fmt.Errorf("mcds: internal: %w (DiamBound %d below the true diameter?)", err, p.DiamBound)
	}
	return res, nil
}

// assemble builds the Result from the output indicator vectors.
func assemble(g *graph.Graph, inD, inCDS []bool, p Params, m congest.Metrics) *Result {
	res := &Result{
		InCDS:      inCDS,
		InD:        inD,
		Thresholds: Thresholds(g.MaxDegree(), p.Eps),
		DiamBound:  p.DiamBound,
		Metrics:    m,
	}
	for v := range inCDS {
		if inCDS[v] {
			res.CDS = append(res.CDS, v)
		}
		if inD[v] {
			res.DS = append(res.DS, v)
		}
	}
	sort.Ints(res.CDS)
	sort.Ints(res.DS)
	return res
}
