package fractional

import (
	"fmt"

	"congestds/internal/congest"
	"congestds/internal/fixpoint"
)

// InitialParams configures the initial fractional solver (Lemma 2.1).
type InitialParams struct {
	// Eps is the ε of Lemma 2.1: the result is floored to ε/(2Δ̃)-fractional
	// values. Must be in (0, 1].
	Eps float64
	// MaxDegree is Δ, assumed known to all nodes (the standard CONGEST
	// assumption the paper's Δ-parameterized bounds rely on).
	MaxDegree int
}

// Initial computes the paper's Part I (Lemma 2.1): a feasible fractional
// dominating set that is ε/(2Δ̃)-fractional, by a deterministic distributed
// covering algorithm, followed by the value floor from the lemma's proof
// ("each node with value < ε/(2Δ) sets its value to ε/(2Δ)").
//
// The covering phase is our substitute for the cited [KMW06] LP solver (see
// DESIGN.md, substitution 4): a threshold-batched parallel fractional
// greedy. Thresholds θ descend from Δ̃ by factors of (1+ε); while a node's
// residual degree d_v (uncovered constraints in N(v)) is at least θ it
// raises x(v) by 1/(θ(1+ε)). Residual degrees are non-increasing, so after
// ⌈θ(1+ε)⌉+1 iterations no candidate remains at a threshold, which gives a
// deterministic per-threshold round budget without global termination
// detection.
//
// It runs as a genuine CONGEST message-passing program: two rounds per
// iteration (uncovered bits, then value increments), O(log n)-bit messages.
// The program is written in the stackless StepProgram form — per-node state
// is the coverStep struct below — so the greedy covering phase executes on
// congest.EngineStepped with no per-node goroutine; the other engines run
// it through the blocking adapter with identical results.
func Initial(net *congest.Network, ledger *congest.Ledger, p InitialParams) (*CFDS, error) {
	g := net.Graph()
	n := g.N()
	if n == 0 {
		return NewFDS(ScaleFor(1), 0), nil
	}
	if p.Eps <= 0 || p.Eps > 1 {
		return nil, fmt.Errorf("fractional: eps=%v out of (0,1]", p.Eps)
	}
	if p.MaxDegree <= 0 {
		p.MaxDegree = g.MaxDegree()
	}
	ctx := ScaleFor(n)
	deltaTilde := uint64(p.MaxDegree + 1)

	onePlusEps := ctx.Add(ctx.One(), ctx.FromFloat(p.Eps))
	// Threshold schedule and per-threshold iteration budgets, identical at
	// every node (both depend only on Δ̃ and ε).
	var phases []coverPhase
	addPhase := func(theta fixpoint.Value) {
		den := ctx.MulUp(theta, onePlusEps)
		inc := ctx.DivDown(ctx.One(), den)
		if inc == 0 {
			inc = ctx.Eps()
		}
		// iterations until guaranteed quiescence: ⌈θ(1+ε)⌉ + 1
		it := int(uint64(den)>>ctx.Scale()) + 2
		phases = append(phases, coverPhase{threshold: theta, increment: inc, iters: it})
	}
	theta := fixpoint.Value(deltaTilde) * ctx.One() // Δ̃ in fixed point
	for theta > ctx.One() {
		addPhase(theta)
		theta = ctx.DivDown(theta, onePlusEps)
	}
	// Final phase at θ=1 guarantees every remaining uncovered constraint is
	// finished (an uncovered node always has residual degree ≥ 1 in its own
	// inclusive neighbourhood).
	addPhase(ctx.One())

	x := make([]fixpoint.Value, n)
	metrics, err := net.RunStepped(func(nd *congest.Node) congest.StepProgram {
		return &coverStep{x: x, phases: phases, ctx: ctx}
	})
	if ledger != nil {
		ledger.RecordRun("partI/fractional-cover", metrics)
	}
	if err != nil {
		return nil, fmt.Errorf("fractional: covering phase: %w", err)
	}

	// Lemma 2.1 floor: value floor ε/(2Δ̃) keeps the approximation within
	// (1+ε) because OPT ≥ n/Δ̃, and makes the solution ε/(2Δ̃)-fractional.
	floor := FloorValue(ctx, p.Eps, p.MaxDegree)
	f := NewFDS(ctx, n)
	for v := range x {
		f.X[v] = fixpoint.Max(x[v], floor)
	}
	if ledger != nil {
		ledger.Charge("partI/floor", 0) // purely local step
	}
	return f, nil
}

// coverPhase is one threshold of the covering schedule: while a node's
// residual degree is ≥ threshold it raises its value by increment; iters
// bounds the iterations until guaranteed quiescence.
type coverPhase struct {
	threshold fixpoint.Value // θ_t, in units of constraints (scaled)
	increment fixpoint.Value // 1/(θ_t(1+ε))
	iters     int
}

// coverStep is the threshold-batched parallel fractional greedy as a
// stackless state machine. Each schedule iteration spans two synchronous
// rounds: round A broadcasts the node's own uncovered bit, round B
// broadcasts the value increment the node chose after seeing its residual
// degree. The struct fields are exactly the stack variables of the blocking
// form: current value, own coverage, the neighbours' uncovered bits and the
// (phase, iteration, sub-round) position in the schedule.
type coverStep struct {
	x      []fixpoint.Value
	phases []coverPhase
	ctx    fixpoint.Ctx

	xv           fixpoint.Value
	covSelf      fixpoint.Value
	uncoveredNbr []bool
	myUncovered  bool
	delta        fixpoint.Value
	pi, it       int
	awaitingB    bool // the next inbox holds round-B increments
}

// sendA broadcasts whether this node's own constraint is still uncovered.
func (s *coverStep) sendA(nd *congest.Node) {
	s.myUncovered = s.covSelf < s.ctx.One()
	bit := byte(0)
	if s.myUncovered {
		bit = 1
	}
	nd.Broadcast(append(nd.PayloadBuf(1), bit))
}

func (s *coverStep) Init(nd *congest.Node) bool {
	s.uncoveredNbr = make([]bool, nd.Degree())
	s.sendA(nd)
	return false
}

func (s *coverStep) Step(nd *congest.Node, round int, in []congest.Incoming) bool {
	ctx := s.ctx
	if !s.awaitingB {
		// Round A receive: residual degree over the inclusive neighbourhood.
		for i := range s.uncoveredNbr {
			s.uncoveredNbr[i] = false
		}
		for _, msg := range in {
			s.uncoveredNbr[msg.Port] = msg.Payload[0] == 1
		}
		d := 0
		if s.myUncovered {
			d++
		}
		for _, u := range s.uncoveredNbr {
			if u {
				d++
			}
		}
		// Round B send: candidates raise and broadcast the actual delta.
		ph := s.phases[s.pi]
		s.delta = 0
		if fixpoint.Value(uint64(d))*ctx.One() >= ph.threshold && s.xv < ctx.One() {
			nx := ctx.Clamp1(ctx.Add(s.xv, ph.increment))
			s.delta = nx - s.xv
			s.xv = nx
		}
		nd.Broadcast(congest.AppendUvarint(nd.PayloadBuf(10), uint64(s.delta)))
		s.awaitingB = true
		return false
	}
	// Round B receive: fold every increment into our own coverage.
	s.covSelf = ctx.Add(s.covSelf, s.delta)
	for _, msg := range in {
		d, off := congest.Uvarint(msg.Payload, 0)
		if off < 0 {
			panic("fractional: bad increment message")
		}
		s.covSelf = ctx.Add(s.covSelf, fixpoint.Value(d))
	}
	s.awaitingB = false
	if s.it++; s.it >= s.phases[s.pi].iters {
		s.it = 0
		s.pi++
	}
	if s.pi >= len(s.phases) {
		s.x[nd.V()] = s.xv
		return true
	}
	s.sendA(nd)
	return false
}

// FloorValue returns the Lemma 2.1 fractionality floor ε/(2Δ̃) in ctx's
// scale, never below one ulp (ctx.Eps()). Initial raises every value to
// it; it is exported for tests and the experiment harness.
func FloorValue(ctx fixpoint.Ctx, eps float64, maxDegree int) fixpoint.Value {
	fl := ctx.FromRatio(1, 2*uint64(maxDegree+1), false)
	fl = ctx.MulUp(fl, ctx.FromFloat(eps))
	if fl == 0 {
		fl = ctx.Eps()
	}
	return fl
}
