// Package mds implements the paper's deterministic CONGEST dominating set
// approximation algorithms (Section 3.4):
//
//   - Theorem 1.1: derandomization via network decomposition (Engine I),
//   - Theorem 1.2: derandomization via distance-2 colorings of split
//     bipartite graphs (Engine II),
//   - Corollary 1.3: the LOCAL-model variant of Theorem 1.2.
//
// Every algorithm follows the paper's three parts: (I) an initial fractional
// dominating set with fractionality ε/(2Δ̃) (Lemma 2.1); (II) O(log Δ)
// factor-two rounding phases that double the fractionality while inflating
// the size by (1+ε₂) each (Lemmas 3.9/3.14); (III) one one-shot rounding to
// an integral dominating set, losing a ln(Δ̃) factor (Lemmas 3.8/3.13).
package mds

import (
	"context"
	"fmt"
	"math"

	"congestds/internal/coloring"
	"congestds/internal/congest"
	"congestds/internal/decomp"
	"congestds/internal/derand"
	"congestds/internal/fractional"
	"congestds/internal/graph"
	"congestds/internal/rounding"
)

// Engine selects the derandomization engine.
type Engine int

// Engines.
const (
	// EngineDecomposition is Theorem 1.1 (network decomposition, CONGEST).
	EngineDecomposition Engine = iota + 1
	// EngineColoring is Theorem 1.2 (distance-2 colorings, CONGEST).
	EngineColoring
	// EngineColoringLocal is Corollary 1.3 (colorings, LOCAL model: no
	// bipartite simulation overhead is charged).
	EngineColoringLocal
)

// String names the engine.
func (e Engine) String() string {
	switch e {
	case EngineDecomposition:
		return "decomposition(Thm1.1)"
	case EngineColoring:
		return "coloring(Thm1.2)"
	case EngineColoringLocal:
		return "coloring-local(Cor1.3)"
	}
	return fmt.Sprintf("Engine(%d)", int(e))
}

// Preset selects the parameter regime (see DESIGN.md, "Parameter regimes").
type Preset int

// Presets.
const (
	// Practical uses modest constants; the default for benchmarks.
	Practical Preset = iota
	// Theory uses the paper's worst-case constants (r ≥ 256·ε⁻³·ln Δ̃,
	// s = 64·ε⁻²·ln Δ̃, ε₂ = ε₁/(100ρ)).
	Theory
)

// maxPhases caps Part II (a safety net: the fractionality doubles each
// phase, so ~log₂Δ phases suffice); Solve fails with a convergence error
// past it.
const maxPhases = 64

// Params configures Solve.
type Params struct {
	// Eps is the ε of Theorems 1.1/1.2; the approximation guarantee is
	// (1+ε)(1+ln(Δ+1)). Must be in (0, 1]. Zero means 0.5.
	Eps float64
	// Engine selects the derandomization engine. Zero means EngineColoring.
	Engine Engine
	// Preset selects Theory or Practical constants.
	Preset Preset
	// Sim selects the congest execution engine that simulates the measured
	// phases (congest.EngineGoroutine or congest.EngineStepped; the Part I
	// covering program is written in stepped form, so under EngineStepped it
	// runs with no per-node goroutine). The engine never changes results or
	// round counts — the conformance suite holds the engines byte-identical
	// — only wall-clock speed and memory. Zero means congest.EngineGoroutine.
	Sim congest.Engine
	// Ctx, when non-nil, is the only way to stop the pipeline early: its
	// cancellation or deadline stops the simulated runs at round boundaries
	// (congest.ErrDeadline). One context bounds the whole multi-part solve:
	// Part I and every Part II phase share the budget.
	Ctx context.Context
	// Observer, when non-nil, receives per-round telemetry from every
	// simulated run of the pipeline (each run appears as one segment on the
	// observer side; see congest.Observer). Attaching one never changes the
	// outcome.
	Observer congest.Observer
}

// PhaseInfo records one Part II phase for the experiment harness (E4).
type PhaseInfo struct {
	R         uint64  // the input was 1/R-fractional
	SizeIn    float64 // FDS size before the phase
	SizeOut   float64 // FDS size after the phase
	FracIn    float64 // fractionality before
	FracOut   float64 // fractionality after
	NumColors int     // distance-2 colors (Engine II) or decomposition colors
}

// Result is the output of Solve.
type Result struct {
	// Set is the computed dominating set (node indices).
	Set []int
	// Bound is the guaranteed approximation factor (1+ε)(1+ln(Δ+1)).
	Bound float64
	// InitialSize is the Part I fractional size (an upper bound proxy for
	// (1+ε₁)·OPT_f under the Part I substitute, cf. DESIGN.md).
	InitialSize float64
	// Phases traces Part II.
	Phases []PhaseInfo
	// Ledger carries measured and charged round/bit costs of all parts.
	Ledger *congest.Ledger
}

// Solve runs the selected deterministic MDS approximation pipeline on g.
func Solve(g *graph.Graph, p Params) (*Result, error) {
	if p.Eps == 0 {
		p.Eps = 0.5
	}
	if p.Eps < 0 || p.Eps > 1 {
		return nil, fmt.Errorf("%w: mds: eps=%v out of (0,1]", congest.ErrConfig, p.Eps)
	}
	if p.Engine == 0 {
		p.Engine = EngineColoring
	}
	n := g.N()
	res := &Result{Ledger: &congest.Ledger{}}
	if n == 0 {
		return res, nil
	}
	delta := g.MaxDegree()
	deltaTilde := float64(delta + 1)
	res.Bound = (1 + p.Eps) * (1 + math.Log(deltaTilde))

	// Parameter schedule (proof of Theorem 1.1/1.2 in Section 3.4).
	rho := math.Max(1, math.Log2(deltaTilde/p.Eps))
	eps1 := math.Min(p.Eps/16, 0.25)
	var eps2 float64
	var fTarget uint64
	var splitS int
	lnD := math.Log(deltaTilde + 1)
	switch p.Preset {
	case Theory:
		eps2 = eps1 / (100 * rho)
		fTarget = uint64(math.Ceil(256 * math.Pow(p.Eps, -3) * lnD))
		splitS = int(math.Ceil(64 * math.Pow(eps2, -2) * lnD))
	default:
		eps2 = eps1 / rho
		fTarget = uint64(math.Ceil(4 * lnD / p.Eps))
		splitS = int(math.Ceil(2 * lnD))
	}
	if fTarget < 2 {
		fTarget = 2
	}
	if splitS < 2 {
		splitS = 2
	}

	// Part I: initial fractional dominating set (Lemma 2.1), followed by the
	// local-ratio trim that removes the parallel greedy's overshoot.
	net := congest.NewNetwork(g, congest.Config{Engine: p.Sim, Ctx: p.Ctx, Observer: p.Observer})
	fds, err := fractional.Initial(net, res.Ledger, fractional.InitialParams{Eps: eps1, MaxDegree: delta})
	if err != nil {
		return nil, fmt.Errorf("mds: part I: %w", err)
	}
	fractional.Trim(g, fds, res.Ledger, 2)
	// Re-apply the Lemma 2.1 floor after trimming so Part II starts from an
	// ε/(2Δ̃)-fractional solution.
	floor := fractional.FloorValue(fds.Ctx, eps1, delta)
	for v := range fds.X {
		if fds.X[v] > 0 && fds.X[v] < floor {
			fds.X[v] = floor
		}
	}
	res.InitialSize = fds.SizeFloat()

	// Engine I precomputes one 2-hop decomposition and reuses it for every
	// phase (the paper computes it once as well).
	var dec *decomp.Decomposition
	if p.Engine == EngineDecomposition {
		dec, err = decomp.Build(g, decomp.Params{K: 2})
		if err != nil {
			return nil, fmt.Errorf("mds: decomposition: %w", err)
		}
	}

	ctx := fds.Ctx
	lnMul := ctx.FromFloat(lnD)

	// Part II: factor-two phases until the solution is 1/fTarget-fractional.
	for phase := 0; ; phase++ {
		frac := fds.Fractionality()
		if frac == 0 {
			return nil, fmt.Errorf("mds: part II: zero fractional solution")
		}
		inv := uint64(ctx.DivDown(ctx.One(), frac))
		r := inv >> ctx.Scale()
		if inv&(uint64(ctx.One())-1) != 0 {
			r++ // ceil(1/frac)
		}
		if r <= fTarget {
			break
		}
		if phase >= maxPhases {
			return nil, fmt.Errorf("mds: part II did not converge after %d phases (r=%d, target=%d)",
				phase, r, fTarget)
		}
		info := PhaseInfo{R: r, SizeIn: fds.SizeFloat(), FracIn: ctx.Float(frac)}
		var out *rounding.Outcome
		switch p.Engine {
		case EngineDecomposition:
			inst := rounding.FactorTwoOnGraph(g, fds, eps2, r)
			proc, err := rounding.NewProcess(inst)
			if err != nil {
				return nil, fmt.Errorf("mds: phase %d: %w", phase, err)
			}
			info.NumColors = dec.NumColors
			out, err = derand.ByDecomposition(proc, dec, g, res.Ledger)
			if err != nil {
				return nil, fmt.Errorf("mds: phase %d: %w", phase, err)
			}
		default:
			bi, err := derand.FactorTwoBipartite(g, fds, eps2, r, splitS)
			if err != nil {
				return nil, fmt.Errorf("mds: phase %d: %w", phase, err)
			}
			proc, err := rounding.NewProcess(bi.Inst)
			if err != nil {
				return nil, fmt.Errorf("mds: phase %d: %w", phase, err)
			}
			col := coloring.Distance2Bipartite(n, bi.Inst.Members, bi.Participating, g.IDs())
			info.NumColors = col.NumColors
			res.Ledger.Charge("derand/d2-coloring", colorCost(p.Engine, col, bi.LeftDegree))
			out, err = derand.ByColoring(proc, col, res.Ledger, simFactor(p.Engine, bi.LeftDegree))
			if err != nil {
				return nil, fmt.Errorf("mds: phase %d: %w", phase, err)
			}
		}
		fds = derand.FDSFromOutcome(ctx, out)
		info.SizeOut = fds.SizeFloat()
		info.FracOut = ctx.Float(fds.Fractionality())
		res.Phases = append(res.Phases, info)
	}

	// Part III: one-shot rounding to an integral solution.
	var out *rounding.Outcome
	switch p.Engine {
	case EngineDecomposition:
		inst := rounding.OneShotOnGraph(g, fds, lnMul)
		proc, err := rounding.NewProcess(inst)
		if err != nil {
			return nil, fmt.Errorf("mds: part III: %w", err)
		}
		out, err = derand.ByDecomposition(proc, dec, g, res.Ledger)
		if err != nil {
			return nil, fmt.Errorf("mds: part III: %w", err)
		}
	default:
		// The current fractionality 1/r with r ≤ fTarget bounds the covering
		// sets of Lemma 3.13.
		bi, err := derand.OneShotBipartite(g, fds, fTarget, lnMul)
		if err != nil {
			return nil, fmt.Errorf("mds: part III: %w", err)
		}
		proc, err := rounding.NewProcess(bi.Inst)
		if err != nil {
			return nil, fmt.Errorf("mds: part III: %w", err)
		}
		col := coloring.Distance2Bipartite(n, bi.Inst.Members, bi.Participating, g.IDs())
		res.Ledger.Charge("derand/d2-coloring", colorCost(p.Engine, col, bi.LeftDegree))
		out, err = derand.ByColoring(proc, col, res.Ledger, simFactor(p.Engine, bi.LeftDegree))
		if err != nil {
			return nil, fmt.Errorf("mds: part III: %w", err)
		}
	}
	final := derand.FDSFromOutcome(ctx, out)
	if !final.Integral() {
		return nil, fmt.Errorf("mds: part III produced a non-integral solution")
	}
	if err := final.Check(g); err != nil {
		return nil, fmt.Errorf("mds: output not dominating: %w", err)
	}
	res.Set = final.Set()
	return res, nil
}

// simFactor returns the CONGEST simulation overhead per conflict round
// (Lemma 3.12 charges O(Δ_L); the LOCAL model of Corollary 1.3 needs none).
func simFactor(e Engine, leftDegree int) int {
	if e == EngineColoringLocal {
		return 1
	}
	if leftDegree < 1 {
		return 1
	}
	return leftDegree
}

// colorCost charges the rounds for computing the distance-2 coloring
// (greedy chain length × simulation factor, cf. Lemma 3.12).
func colorCost(e Engine, col *coloring.Result, leftDegree int) int {
	return col.Rounds * simFactor(e, leftDegree)
}

// Bound returns the approximation guarantee (1+ε)(1+ln(Δ+1)) for a graph
// with maximum degree delta.
func Bound(eps float64, delta int) float64 {
	return (1 + eps) * (1 + math.Log(float64(delta+1)))
}
