package congest

import (
	"errors"
	"fmt"
)

// Failure sentinels added by the robustness layer. Together with
// ErrBandwidth and ErrMaxRounds (congest.go) they form the complete
// sentinel taxonomy; SentinelClass maps any run error onto it.
var (
	// ErrDeadline is returned when a run's Config.Ctx is cancelled or its
	// deadline passes. The check runs at every round boundary, so a run
	// never outlives its context by more than the round in progress
	// (per-round granularity: a Step that never returns cannot be preempted
	// cooperatively).
	ErrDeadline = errors.New("congest: deadline exceeded")
	// ErrInjected is returned when an injected infrastructure fault
	// (internal/chaos: arena exhaustion, I/O failure, ...) aborts a run.
	ErrInjected = errors.New("congest: injected fault")
)

// Hooks intercepts engine events for fault injection (see internal/chaos).
// Both engines call each hook at semantically identical points, so a
// deterministic implementation yields byte-identical outcomes — outputs,
// sentinel class and Metrics — on every engine and in both program forms;
// the conformance suite enforces exactly that.
//
// Hooks are called concurrently from engine workers and node goroutines;
// implementations must be safe for concurrent use (read-only state, as in
// chaos.Plan, is the intended shape). The compute-opportunity counter op
// numbers a node's chances to run code: op 0 is Init (the code before the
// first Sync), op r ≥ 1 is Step(round r-1) (the code after the r-th Sync).
type Hooks interface {
	// Crash reports whether node v crash-stops at compute opportunity op.
	// A crashed node behaves exactly as if its program returned done at the
	// start of that opportunity with an empty outbox: it falls silent, its
	// queued sends for the opportunity are discarded, and the run otherwise
	// continues (a crash is not a run failure).
	Crash(v, op int) bool
	// AlterPayload may replace the payload node v sends on port during
	// compute opportunity op. It runs after empty-payload canonicalization
	// and before the bandwidth check, so a payload grown past the budget
	// fails with ErrBandwidth identically on every engine. The returned
	// slice must not alias mutated caller memory (copy before corrupting).
	AlterPayload(v, port, op int, payload []byte) []byte
	// RoundEnd runs at the delivery point of the given round (1-based),
	// single-threaded on every engine. A non-nil error aborts the run with
	// that error; wrap ErrInjected or ErrDeadline to stay inside the
	// sentinel taxonomy.
	RoundEnd(round int) error
	// Stall may delay the caller (timing-only; it must not change any
	// outcome — the conformance suite diffs stalled runs against unstalled
	// engines). The blocking engines call it at the delivery point; the
	// stepped engine calls it from the worker that claims the first chunk
	// of the sweep, perturbing the work-stealing schedule.
	Stall(round int)
}

// SentinelClass maps a run error onto the sentinel taxonomy: "bandwidth",
// "max-rounds", "deadline", "injected", "bad-ckpt", "config" (caller
// misuse — the run never started), "" for nil, and "program" for
// everything else (a program panic or its own error). The conformance
// suite requires failed runs to agree on this class across engines, and
// the CLIs print it so exit statuses stay diagnosable.
func SentinelClass(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrBandwidth):
		return "bandwidth"
	case errors.Is(err, ErrMaxRounds):
		return "max-rounds"
	case errors.Is(err, ErrDeadline):
		return "deadline"
	case errors.Is(err, ErrInjected):
		return "injected"
	case errors.Is(err, ErrBadCkpt):
		return "bad-ckpt"
	case errors.Is(err, ErrConfig):
		return "config"
	default:
		return "program"
	}
}

// checkRound is the shared round-boundary stop check, called by both
// engines at their delivery point after incrementing the round counter. The
// check order — MaxRounds, injected round faults, context cancellation —
// is fixed so engines agree on the sentinel when several conditions hold at
// once. The first two are deterministic; the context is the caller's one
// way to stop a run, and it produces the same sentinel class wherever it
// fires.
func (net *Network) checkRound(round int) error {
	if round > net.cfg.MaxRounds {
		return fmt.Errorf("%w (%d)", ErrMaxRounds, net.cfg.MaxRounds)
	}
	if h := net.cfg.Hooks; h != nil {
		if err := h.RoundEnd(round); err != nil {
			return err
		}
	}
	if ctx := net.cfg.Ctx; ctx != nil {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("%w: %v", ErrDeadline, err)
		}
	}
	return nil
}

// crashStop is the panic value Sync throws when a hook crash-stops a node
// mid-program; recoverNode treats it as a normal return, not a failure.
type crashStop struct{}

// runProg starts a blocking program on node v, honouring a crash at compute
// opportunity 0 (the node never runs). Both goroutine-per-node engines
// launch programs through this wrapper.
func runProg(nd *Node, prog Program) {
	if h := nd.net.cfg.Hooks; h != nil && h.Crash(nd.v, 0) {
		return
	}
	prog(nd)
}
