// Package family is the algorithm-family registry: the one
// solve → certify → report plumbing every distributed dominating-set
// algorithm plugs into — the source paper's thm1.1, thm1.2 (alias paper),
// cor1.3 and cds, and arbmds and mcds beyond it. A Family bundles a Solve
// function with the certificate its outputs are checked against, in the
// uniform shape cmd/mdsrun and cmd/mdsd both dispatch on (so they accept
// the same names). Adding a family (the recipe in docs/ARCHITECTURE.md)
// is: implement the algorithm package, register it here, add a
// conformance case and an experiment table.
package family

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"congestds/internal/congest"
	"congestds/internal/graph"
)

// Params is the uniform parameter set a family's Solve receives; families
// ignore the fields they have no use for.
type Params struct {
	// Eps is the approximation/decay parameter (zero: the family default).
	Eps float64
	// Sim selects the congest execution engine.
	Sim congest.Engine
	// MaxRounds clamps the simulated run (zero: simulator default).
	MaxRounds int
	// DiamBound is the known diameter upper bound for families that run an
	// orientation phase (zero: the family's safe default, typically n).
	DiamBound int
	// Ctx, when non-nil, is the only way to stop a solve early: one
	// context bounds the whole solve, even when it spans several simulated
	// runs, and its cancellation or deadline surfaces as
	// congest.ErrDeadline. A wall-clock budget is the caller's
	// context.WithTimeout, so it starts when the caller creates it.
	Ctx context.Context
	// CkptPath enables checkpoint/resume for families whose solver runs as
	// a single checkpointable stepped program (currently arbmds): the run
	// checkpoints to this path every CkptEvery rounds and resumes from it
	// when the file already holds a matching checkpoint. Families that
	// cannot checkpoint reject a non-empty CkptPath.
	CkptPath string
	// CkptEvery is the checkpoint cadence in rounds (only read when
	// CkptPath is set; zero means 1).
	CkptEvery int
	// Observer, when non-nil, receives per-round telemetry from the
	// family's simulated runs (see congest.Observer); attaching one never
	// changes the outcome.
	Observer congest.Observer
}

// Key returns the canonical equality key of the parameters that determine
// a family's certified output: Eps, Sim, MaxRounds and DiamBound. The
// execution-context fields — Ctx, Observer, CkptPath, CkptEvery
// — are deliberately excluded: they decide whether and how a run executes,
// never what a successful run produces (checkpoint resume and observer
// attachment are byte-identity-preserving by tested contract). Two Params
// with equal Keys applied to the same graph and family yield identical
// Results, which is what makes Key a cache key for certified solutions.
//
// Key does not know family defaults: Eps=0 and Eps=0.5 produce different
// Keys even though arbmds treats them identically. Canonicalize through
// Family.Canon first when that collision is wanted (a solution cache
// always wants it).
func (p Params) Key() string {
	return fmt.Sprintf("eps=%s sim=%s maxrounds=%d diam=%d",
		strconv.FormatFloat(p.Eps, 'g', -1, 64), p.Sim, p.MaxRounds, p.DiamBound)
}

// Certificate is what a family's verification layer returns: a printable
// verdict. All concrete certificates (verify.ArbCertificate,
// verify.CDSCertificate, ...) satisfy it via small adapters in
// register.go.
type Certificate interface {
	fmt.Stringer
	// Passed reports whether the output met the family's claim.
	Passed() bool
}

// Result is a family run in the uniform shape.
type Result struct {
	// Set is the family's solution (a dominating set, or a connected
	// dominating set for CDS families), ascending.
	Set []int
	// Rounds is the synchronous round count (the paper's pipeline: measured
	// plus charged, split in a Note).
	Rounds int
	// Cert is the family's certificate over Set (never nil).
	Cert Certificate
	// Notes are extra human-readable lines for command-line output.
	Notes []string
	// Ledger, when non-nil, is a multi-part pipeline's per-phase round
	// account, which mdsrun -profile prints with observed wall time.
	Ledger *congest.Ledger
}

// Family is one registered algorithm family.
type Family struct {
	// Name is the -algo name.
	Name string
	// Summary is a one-line description for listings.
	Summary string
	// NeedsDiam marks families that consume Params.DiamBound, so callers
	// only pay for a host-side diameter estimate (a BFS) when the family
	// will use it.
	NeedsDiam bool
	// DefaultEps is the value the family's Solve substitutes for a
	// non-positive Params.Eps. Canon uses it so that a zero-valued and a
	// default-filled parameter set produce the same Key.
	DefaultEps float64
	// Solve runs the family on g and certifies the output.
	Solve func(g *graph.Graph, p Params) (*Result, error)
}

// Canon returns p with the fields the family would normalize anyway folded
// to their canonical spelling, so that parameter sets the family treats
// identically collide under Params.Key: a non-positive Eps becomes
// DefaultEps (exactly the substitution the registered Solve adapters
// perform), a DiamBound on a family that never reads one is dropped, and
// negative round clamps (no clamp) become zero. Canon changes no
// execution-context field and never changes what Solve computes —
// Solve(g, p) and Solve(g, f.Canon(p)) produce identical Results, which
// TestCanonPreservesSolve pins per registered family.
func (f Family) Canon(p Params) Params {
	if p.Eps <= 0 {
		p.Eps = f.DefaultEps
	}
	if !f.NeedsDiam {
		p.DiamBound = 0
	}
	if p.MaxRounds < 0 {
		p.MaxRounds = 0
	}
	if p.DiamBound < 0 {
		p.DiamBound = 0
	}
	return p
}

var (
	mu       sync.Mutex
	registry = map[string]Family{}
)

// Register adds a family. Duplicate names panic: they are a wiring bug.
func Register(f Family) {
	mu.Lock()
	defer mu.Unlock()
	if f.Name == "" || f.Solve == nil {
		panic("family: Register with empty name or nil Solve")
	}
	if _, dup := registry[f.Name]; dup {
		panic("family: duplicate registration of " + f.Name)
	}
	registry[f.Name] = f
}

// Names returns the sorted registered family names.
func Names() []string {
	mu.Lock()
	defer mu.Unlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Get returns the named family. The error for an unknown name lists the
// registered names, mirroring graph.Named.
func Get(name string) (Family, error) {
	mu.Lock()
	f, ok := registry[name]
	mu.Unlock()
	if !ok {
		return Family{}, fmt.Errorf("family: unknown algorithm family %q (families: %s)",
			name, strings.Join(Names(), ", "))
	}
	return f, nil
}
