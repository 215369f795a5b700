package family

import (
	"fmt"

	"congestds/internal/arbmds"
	"congestds/internal/cds"
	"congestds/internal/congest"
	"congestds/internal/graph"
	"congestds/internal/mcds"
	"congestds/internal/mds"
	"congestds/internal/verify"
)

// Registrations of the source paper's pipeline and of the algorithm
// families beyond it. The registry deliberately lives on the consumer side
// (adapters around the algorithms' typed APIs) so the algorithm packages
// stay free of registry concerns and their Solve signatures can stay
// precise.

// arbCert adapts verify.ArbCertificate to the Certificate interface.
type arbCert struct{ verify.ArbCertificate }

func (c arbCert) Passed() bool { return c.OK }

// cdsCert adapts verify.CDSCertificate.
type cdsCert struct{ verify.CDSCertificate }

func (c cdsCert) Passed() bool { return c.OK }

// dsCert is the verdict on a paper-pipeline or baseline output: it gates
// domination (plus connectivity for a CDS) and reports the dual-packing
// ratio and the proven guarantee without gating them, because the LP
// bound is only decisive against exact OPT (experiment E1).
type dsCert struct {
	verify.RatioCertificate
	guarantee float64
	ok        bool
}

func (c dsCert) Passed() bool { return c.ok }

func (c dsCert) String() string {
	return fmt.Sprintf("size=%d LB=%.2f ratio≤%.3f guarantee=%.3f ok=%v",
		c.Size, c.LowerBound, c.Ratio, c.guarantee, c.ok)
}

// CertifyDS certifies set as a dominating set of g — a connected one when
// connected is set — and reports it against the proven guarantee.
func CertifyDS(g *graph.Graph, set []int, guarantee float64, connected bool) Certificate {
	ok := verify.IsDominatingSet(g, set) && (!connected || verify.IsConnectedSet(g, set))
	return dsCert{verify.Certify(g, set), guarantee, ok}
}

func init() {
	// The source paper's pipeline: one row per theorem; paper is the
	// README's name for Theorem 1.2.
	for _, row := range []struct {
		name, summary string
		engine        mds.Engine
		cds           bool
	}{
		{"thm1.1", "paper Thm 1.1 (arXiv:1905.10775): deterministic (1+ε)(1+ln(Δ+1))-approximate MDS in CONGEST via network decomposition", mds.EngineDecomposition, false},
		{"thm1.2", "paper Thm 1.2 (arXiv:1905.10775): deterministic (1+ε)(1+ln(Δ+1))-approximate MDS in CONGEST via distance-2 colorings", mds.EngineColoring, false},
		{"paper", "alias of thm1.2, the source paper's main algorithm", mds.EngineColoring, false},
		{"cor1.3", "paper Cor 1.3 (arXiv:1905.10775): the LOCAL-model variant of Thm 1.2", mds.EngineColoringLocal, false},
		{"cds", "paper Thm 1.4 (arXiv:1905.10775, Sec. 4): connected dominating set from the Thm 1.2 set, |CDS| ≤ 3|DS|", mds.EngineColoring, true},
	} {
		Register(Family{
			Name:       row.name,
			Summary:    row.summary,
			DefaultEps: 0.5,
			Solve: func(g *graph.Graph, p Params) (*Result, error) {
				if p.CkptPath != "" {
					return nil, fmt.Errorf("%w: %s does not support checkpointing (CkptPath set)", congest.ErrConfig, row.name)
				}
				if p.Eps <= 0 {
					p.Eps = 0.5
				}
				mp := mds.Params{Eps: p.Eps, Engine: row.engine, Sim: p.Sim, Ctx: p.Ctx, Observer: p.Observer}
				out := &Result{}
				var bound float64
				if row.cds {
					res, err := cds.Solve(g, cds.Params{MDS: mp})
					if err != nil {
						return nil, err
					}
					out.Set, out.Ledger, bound = res.CDS, res.Ledger, res.Bound
					out.Notes = []string{fmt.Sprintf("underlying dominating set: %d nodes, %d cluster centres",
						len(res.DS), len(res.RulingSet))}
				} else {
					res, err := mds.Solve(g, mp)
					if err != nil {
						return nil, err
					}
					out.Set, out.Ledger, bound = res.Set, res.Ledger, res.Bound
				}
				m := out.Ledger.Metrics()
				out.Rounds = m.TotalRounds()
				out.Cert = CertifyDS(g, out.Set, bound, row.cds)
				out.Notes = append(out.Notes, fmt.Sprintf(
					"round split: %d measured + %d charged (charged rounds are accounted, not executed)",
					m.Rounds, m.ChargedRounds))
				return out, nil
			},
		})
	}

	Register(Family{
		Name:       "arbmds",
		Summary:    "bounded-arboricity peeling MDS (Dory–Ghaffari–Ilchi, arXiv:2206.05174): O(α)·OPT in 4·⌈log₁₊ε Δ̃⌉ rounds, independent of n",
		DefaultEps: 0.5,
		Solve: func(g *graph.Graph, p Params) (*Result, error) {
			eps := p.Eps
			if eps <= 0 {
				eps = 0.5
			}
			res, err := arbmds.Solve(g, arbmds.Params{
				Eps: eps, Sim: p.Sim, MaxRounds: p.MaxRounds,
				Ctx: p.Ctx, CkptPath: p.CkptPath, CkptEvery: p.CkptEvery,
				Observer: p.Observer,
			})
			if err != nil {
				return nil, err
			}
			cert := verify.CertifyArb(g, res.Set, eps)
			return &Result{
				Set:    res.Set,
				Rounds: res.Metrics.Rounds,
				Cert:   arbCert{cert},
				Notes: []string{
					fmt.Sprintf("phases: %d (thresholds %v), rounds independent of n",
						len(res.Thresholds), res.Thresholds),
				},
			}, nil
		},
	})

	Register(Family{
		Name:       "mcds",
		Summary:    "connected dominating set (Ghaffari MCDS family, arXiv:1404.7559, unit weights): dominate via threshold greedy, connect via two-hop paths along a BFS orientation",
		NeedsDiam:  true,
		DefaultEps: 0.5,
		Solve: func(g *graph.Graph, p Params) (*Result, error) {
			eps := p.Eps
			if eps <= 0 {
				eps = 0.5
			}
			if p.CkptPath != "" {
				return nil, fmt.Errorf("%w: mcds does not support checkpointing (CkptPath set)", congest.ErrConfig)
			}
			res, err := mcds.Solve(g, mcds.Params{
				Eps: eps, Sim: p.Sim, MaxRounds: p.MaxRounds, DiamBound: p.DiamBound,
				Ctx: p.Ctx, Observer: p.Observer,
			})
			if err != nil {
				return nil, err
			}
			// Solve verified connectivity + domination before returning;
			// only the LP ratio is left to compute.
			cert := verify.CertifyCDSVerified(g, res.CDS, verify.MCDSClaimBound(g.MaxDegree(), eps))
			return &Result{
				Set:    res.CDS,
				Rounds: res.Metrics.Rounds,
				Cert:   cdsCert{cert},
				Notes: []string{
					fmt.Sprintf("underlying dominating set: %d nodes (|CDS| ≤ 3|DS|+1 = %d)",
						len(res.DS), 3*len(res.DS)+1),
					fmt.Sprintf("schedule: %d peel phases + D̂=%d orientation + 2 connect rounds",
						len(res.Thresholds), res.DiamBound),
				},
			}, nil
		},
	})
}
