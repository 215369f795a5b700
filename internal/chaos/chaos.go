// Package chaos is a seeded, declarative fault-injection layer for the
// congest execution engines. A Plan is a fixed set of Faults plus a seed;
// it implements congest.Hooks, so wiring it into a run is one Config field:
//
//	plan := chaos.NewPlan(42,
//		chaos.Fault{Kind: chaos.CrashNode, Node: 7, Round: 3},
//		chaos.Fault{Kind: chaos.DeadlineRound, Round: 10},
//	)
//	net := congest.NewNetwork(g, congest.Config{Hooks: plan})
//
// Everything a Plan does is a pure function of (faults, seed, fault site):
// no entropy, no clocks, no per-run state. That is the property the
// conformance suite leans on — the same Plan must produce byte-identical
// outcomes (outputs or sentinel class, and honest Metrics) on the
// goroutine and stepped engines, in blocking and stepped program forms
// alike. Plans are immutable after construction and safe for
// concurrent use from engine workers.
//
// Fault sites use the compute-opportunity numbering of congest.Hooks:
// Round r means opportunity r for node faults (r = 0 is Init, r ≥ 1 is
// Step(r-1)) and delivery boundary r (1-based) for round faults.
package chaos

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"congestds/internal/congest"
	"congestds/internal/graph"
)

// Kind enumerates the injectable fault classes.
type Kind int

// Supported fault kinds.
const (
	// CrashNode crash-stops Node at compute opportunity Round: the node
	// falls permanently silent, exactly as if its program returned there.
	// Not a run failure — the run continues without the node.
	CrashNode Kind = iota + 1
	// TruncatePayload cuts the payload Node sends on Port during
	// opportunity Round down to at most Arg bytes.
	TruncatePayload
	// FlipPayload XORs every payload byte Node sends on Port during
	// opportunity Round with a seed-derived mask (a copy is corrupted; the
	// sender's buffer is never mutated).
	FlipPayload
	// ExtendPayload appends Arg seed-derived bytes to the payload Node
	// sends on Port during opportunity Round; growing past the CONGEST
	// budget fails the run with ErrBandwidth on every engine.
	ExtendPayload
	// StallRound sleeps Arg milliseconds at round Round — in the blocking
	// engines at the delivery point, in the stepped engine on the worker
	// that claims the first chunk of the sweep (perturbing work stealing).
	// Timing-only: outcomes must not change.
	StallRound
	// FailRound aborts the run at delivery boundary Round with an error
	// wrapping congest.ErrInjected — the engine-neutral model of an
	// infrastructure fault (arena exhaustion, I/O error) striking at a
	// deterministic point.
	FailRound
	// DeadlineRound aborts the run at delivery boundary Round with an
	// error wrapping congest.ErrDeadline: a deterministic stand-in for a
	// wall-clock deadline, so deadline-failure behaviour is testable
	// without timing races.
	DeadlineRound
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case CrashNode:
		return "crash-node"
	case TruncatePayload:
		return "truncate-payload"
	case FlipPayload:
		return "flip-payload"
	case ExtendPayload:
		return "extend-payload"
	case StallRound:
		return "stall-round"
	case FailRound:
		return "fail-round"
	case DeadlineRound:
		return "deadline-round"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Fault is one declarative fault. Which fields matter depends on Kind; see
// the Kind constants. Port -1 on a payload fault matches every port.
type Fault struct {
	Kind  Kind
	Node  int
	Port  int
	Round int
	Arg   int
}

// String renders the fault compactly.
func (f Fault) String() string {
	switch f.Kind {
	case CrashNode:
		return fmt.Sprintf("%v(v=%d, op=%d)", f.Kind, f.Node, f.Round)
	case TruncatePayload, FlipPayload, ExtendPayload:
		return fmt.Sprintf("%v(v=%d, port=%d, op=%d, arg=%d)", f.Kind, f.Node, f.Port, f.Round, f.Arg)
	default:
		return fmt.Sprintf("%v(round=%d, arg=%d)", f.Kind, f.Round, f.Arg)
	}
}

// nodeOpKey addresses per-node fault sites.
type nodeOpKey struct {
	v, op int
}

// Plan is an immutable, indexed fault schedule implementing congest.Hooks.
type Plan struct {
	seed    uint64
	faults  []Fault
	crash   map[nodeOpKey]bool
	payload map[nodeOpKey][]Fault // filtered by port at the call site
	round   map[int]Fault         // FailRound / DeadlineRound, last one wins
	stall   map[int]time.Duration
	// obs, when non-nil, receives an EvFault event each time a fault
	// actually fires (see WithObserver). Telemetry only: the fault outcome
	// is identical with and without it.
	obs congest.Observer
}

var _ congest.Hooks = (*Plan)(nil)

// NewPlan indexes the given faults under the seed (which parameterizes the
// corruption masks of FlipPayload and ExtendPayload).
func NewPlan(seed uint64, faults ...Fault) *Plan {
	p := &Plan{
		seed:    seed,
		faults:  append([]Fault(nil), faults...),
		crash:   make(map[nodeOpKey]bool),
		payload: make(map[nodeOpKey][]Fault),
		round:   make(map[int]Fault),
		stall:   make(map[int]time.Duration),
	}
	for _, f := range p.faults {
		switch f.Kind {
		case CrashNode:
			p.crash[nodeOpKey{f.Node, f.Round}] = true
		case TruncatePayload, FlipPayload, ExtendPayload:
			k := nodeOpKey{f.Node, f.Round}
			p.payload[k] = append(p.payload[k], f)
		case FailRound, DeadlineRound:
			p.round[f.Round] = f
		case StallRound:
			p.stall[f.Round] += time.Duration(f.Arg) * time.Millisecond
		}
	}
	return p
}

// RandomPlan derives count faults over a graph of n nodes and the first
// rounds delivery boundaries from the seed alone — same (seed, n, rounds,
// count) always builds the same Plan, so randomized fault-schedule corpora
// stay reproducible. Only run-preserving kinds are drawn (crashes, payload
// truncation/flips, stalls): a random plan perturbs a run, a run-aborting
// fault is declared explicitly.
func RandomPlan(seed uint64, n, rounds, count int) *Plan {
	if n < 1 {
		n = 1
	}
	if rounds < 1 {
		rounds = 1
	}
	s := splitmix(seed)
	faults := make([]Fault, 0, count)
	for i := 0; i < count; i++ {
		var f Fault
		k := s.next() % 4
		f.Node = int(s.next() % uint64(n))
		f.Round = int(s.next() % uint64(rounds))
		switch k {
		case 0:
			f.Kind = CrashNode
		case 1:
			f.Kind = TruncatePayload
			f.Port = -1
			f.Arg = int(s.next() % 4)
		case 2:
			f.Kind = FlipPayload
			f.Port = -1
		case 3:
			f.Kind = StallRound
			f.Round++ // delivery boundaries are 1-based
			f.Arg = int(s.next() % 2)
		}
		faults = append(faults, f)
	}
	return NewPlan(seed, faults...)
}

// Faults returns the plan's faults in construction order.
func (p *Plan) Faults() []Fault { return append([]Fault(nil), p.faults...) }

// WithObserver returns a copy of the plan that reports each fired fault to
// o as an EvFault event (Detail renders the fault; faults on nodes carry
// Round -1 because they fire from engine workers mid-compute). The
// receiver is unchanged — plans stay immutable — and the copy shares the
// read-only fault indexes.
func (p *Plan) WithObserver(o congest.Observer) *Plan {
	cp := *p
	cp.obs = o
	return &cp
}

// fired reports one fault firing to the plan's observer, if any.
func (p *Plan) fired(f Fault, round, node int, value int64) {
	if p.obs != nil {
		p.obs.Event(congest.Event{
			Kind:   congest.EvFault,
			Round:  round,
			Node:   node,
			Value:  value,
			Detail: f.String(),
		})
	}
}

// String lists the plan's faults.
func (p *Plan) String() string {
	parts := make([]string, len(p.faults))
	for i, f := range p.faults {
		parts[i] = f.String()
	}
	sort.Strings(parts)
	return fmt.Sprintf("chaos.Plan(seed=%d: %s)", p.seed, strings.Join(parts, ", "))
}

// Crash implements congest.Hooks.
func (p *Plan) Crash(v, op int) bool {
	if !p.crash[nodeOpKey{v, op}] {
		return false
	}
	p.fired(Fault{Kind: CrashNode, Node: v, Round: op}, -1, v, int64(op))
	return true
}

// AlterPayload implements congest.Hooks. Faults on the same site apply in
// declaration order; the input slice is never mutated.
func (p *Plan) AlterPayload(v, port, op int, payload []byte) []byte {
	faults := p.payload[nodeOpKey{v, op}]
	if len(faults) == 0 {
		return payload
	}
	for _, f := range faults {
		if f.Port != -1 && f.Port != port {
			continue
		}
		p.fired(f, -1, v, int64(op))
		switch f.Kind {
		case TruncatePayload:
			if f.Arg < 0 {
				f.Arg = 0
			}
			if len(payload) > f.Arg {
				payload = payload[:f.Arg]
			}
		case FlipPayload:
			s := splitmix(p.seed ^ siteSeed(v, port, op))
			cp := append([]byte(nil), payload...)
			for i := range cp {
				cp[i] ^= byte(s.next())
			}
			payload = cp
		case ExtendPayload:
			s := splitmix(p.seed ^ siteSeed(v, port, op) ^ 0x9e37)
			cp := make([]byte, len(payload), len(payload)+f.Arg)
			copy(cp, payload)
			for i := 0; i < f.Arg; i++ {
				cp = append(cp, byte(s.next()))
			}
			payload = cp
		}
	}
	return payload
}

// RoundEnd implements congest.Hooks.
func (p *Plan) RoundEnd(round int) error {
	f, ok := p.round[round]
	if !ok {
		return nil
	}
	p.fired(f, round, -1, 0)
	if f.Kind == DeadlineRound {
		return fmt.Errorf("%w: injected deadline at round %d", congest.ErrDeadline, round)
	}
	return fmt.Errorf("%w: injected infrastructure fault at round %d (resource-exhaustion class)",
		congest.ErrInjected, round)
}

// Stall implements congest.Hooks.
func (p *Plan) Stall(round int) {
	if d := p.stall[round]; d > 0 {
		p.fired(Fault{Kind: StallRound, Round: round}, round, -1, int64(d/time.Millisecond))
		time.Sleep(d)
	}
}

// siteSeed folds a fault site into a 64-bit stream seed.
func siteSeed(v, port, op int) uint64 {
	return uint64(v)<<40 ^ uint64(uint32(port))<<20 ^ uint64(op)
}

// splitmix is SplitMix64 (Steele et al., "Fast splittable pseudorandom
// number generators"): tiny, stateless-seedable, and plenty for corruption
// masks and fault placement.
type splitmixState uint64

func splitmix(seed uint64) *splitmixState {
	s := splitmixState(seed)
	return &s
}

func (s *splitmixState) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// FailGraphLoads installs err as the injected failure for every subsequent
// graph.Load / graph.Mmap call and returns a restore func; typical use is
//
//	defer chaos.FailGraphLoads(myErr)()
//
// in tests exercising the loader failure path. The injected error is
// wrapped under congest.ErrInjected so callers classify it like any other
// injected fault. Not safe to install while loads are in flight.
func FailGraphLoads(err error) (restore func()) {
	prev := graph.LoadFault
	graph.LoadFault = func(path string) error {
		return fmt.Errorf("%w: graph load of %s: %w", congest.ErrInjected, path, err)
	}
	return func() { graph.LoadFault = prev }
}
