// Package congest simulates the synchronous CONGEST and LOCAL models of
// distributed computing (Peleg 2000), as defined in Section 2 of the paper.
//
// A Network wraps a communication graph. Each node executes a Program;
// rounds are synchronous: all nodes compute, send at most one message per
// incident edge, and a barrier (Sync) delivers messages for the next round.
// In the CONGEST model the simulator enforces the O(log n) message-size
// bound and records bandwidth metrics; in the LOCAL model messages are
// unbounded.
//
// Two execution engines implement the same semantics (see Config.Engine):
//
//   - EngineGoroutine: one goroutine per node with a global barrier. The
//     original engine, kept simple as the reference the other is held to.
//   - EngineStepped: a stackless worker-pool scheduler for programs written
//     in the non-blocking StepProgram form, over double-buffered per-edge
//     message slots. Per-node state is an explicit struct instead of a
//     goroutine stack, so million-node graphs run in a few machine words
//     per node; payloads are bump-allocated from a per-round arena (see
//     Node.PayloadBuf). Blocking Programs still work under EngineStepped —
//     they fall back to the goroutine engine, since a blocked goroutine
//     cannot be suspended without its stack.
//
// Determinism: inboxes are sorted by port, programs may not use any entropy
// source, and no engine introduces any, so the outcome of a run is a
// pure function of the graph, the IDs and the program — independent of the
// engine and of goroutine scheduling. The conformance suite
// (internal/congest/conformance) enforces this cross-engine: both engines
// must produce byte-identical outputs and identical metrics on a corpus of
// graphs, for blocking programs and their stepped variants alike.
//
// # Writing a StepProgram
//
// A StepProgram is the resumable state-machine form of a Program: Init
// replaces the code before the first Sync, each Step replaces the code
// between two Syncs, and explicit struct fields replace stack variables.
// The blocking flood
//
//	prog := func(nd *congest.Node) {
//		my := -1
//		if nd.V() == 0 {
//			my = 0
//		}
//		for r := 0; r < rounds; r++ {
//			if my == r {
//				nd.Broadcast([]byte{1})
//			}
//			in := nd.Sync()
//			if my < 0 && len(in) > 0 {
//				my = r + 1
//			}
//		}
//		dist[nd.V()] = my
//	}
//
// becomes
//
//	type flood struct{ my, rounds int; dist []int }
//
//	func (f *flood) Init(nd *congest.Node) bool {
//		f.my = -1
//		if nd.V() == 0 {
//			f.my = 0
//			nd.Broadcast([]byte{1}) // the sends of loop iteration 0
//		}
//		return false
//	}
//
//	func (f *flood) Step(nd *congest.Node, r int, in []congest.Incoming) bool {
//		if f.my < 0 && len(in) > 0 { // the receives of loop iteration r
//			f.my = r + 1
//		}
//		if r+1 >= f.rounds {
//			f.dist[nd.V()] = f.my
//			return true // done: like returning from the blocking Program
//		}
//		if f.my == r+1 {
//			nd.Broadcast([]byte{1}) // the sends of loop iteration r+1
//		}
//		return false
//	}
//
// run with
//
//	net.RunStepped(func(nd *congest.Node) congest.StepProgram {
//		return &flood{rounds: rounds, dist: dist}
//	})
package congest

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"congestds/internal/graph"
)

// Model selects the communication model.
type Model int

// Supported models.
const (
	// Congest limits messages to BandwidthFactor·⌈log₂ n⌉ bits per edge per
	// round.
	Congest Model = iota + 1
	// Local allows unbounded messages.
	Local
)

// String returns the model name.
func (m Model) String() string {
	switch m {
	case Congest:
		return "CONGEST"
	case Local:
		return "LOCAL"
	}
	return fmt.Sprintf("Model(%d)", int(m))
}

// Engine selects the execution engine that drives a run. Both engines
// implement identical synchronous-round semantics; they differ only in how
// the barrier and message delivery are scheduled.
type Engine int

// Supported engines.
const (
	// EngineGoroutine runs one goroutine per node with a global
	// mutex/condvar barrier (the original engine). The zero value.
	EngineGoroutine Engine = iota
	// EngineStepped drives StepPrograms with a GOMAXPROCS-sized worker pool
	// over a CSR layout of per-edge message slots: no per-node goroutine, no
	// condvar parking, message slots packed into 8-byte {offset, length}
	// records over per-worker byte arenas (a third of the [][]byte slot
	// memory, and invisible to the GC), payloads bump-allocated and recycled
	// without per-send allocation. Blocking Programs fall back to the
	// goroutine engine.
	EngineStepped
)

// String returns the engine name.
func (e Engine) String() string {
	switch e {
	case EngineGoroutine:
		return "goroutine"
	case EngineStepped:
		return "stepped"
	}
	return fmt.Sprintf("Engine(%d)", int(e))
}

// ParseEngine converts a command-line engine name to an Engine.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "", "goroutine":
		return EngineGoroutine, nil
	case "stepped":
		return EngineStepped, nil
	case "sharded":
		return 0, fmt.Errorf("%w: engine %q was removed; use stepped", ErrConfig, s)
	}
	return 0, fmt.Errorf("%w: unknown engine %q (want goroutine or stepped)", ErrConfig, s)
}

// Engines lists all engines (used by differential tests and benchmarks).
func Engines() []Engine { return []Engine{EngineGoroutine, EngineStepped} }

// Config parameterizes a Network. The zero value selects the CONGEST model
// with the goroutine engine, the default bandwidth factor and round limit.
type Config struct {
	// Model is Congest or Local. Zero means Congest.
	Model Model
	// Engine selects the execution engine. Zero means EngineGoroutine.
	Engine Engine
	// BandwidthFactor c gives a per-edge, per-round budget of c·⌈log₂ n⌉
	// bits ("messages of size O(log n)", Section 2). Zero means 16, enough
	// for a constant number of identifiers and fixed-point values per
	// message, as the paper assumes.
	BandwidthFactor int
	// MaxRounds aborts runaway programs. Zero means 10_000_000.
	MaxRounds int
	// Ctx, when non-nil, is the only way to stop a run early: its
	// cancellation or deadline is checked at every round boundary and
	// surfaces as ErrDeadline, so a run never outlives the context by more
	// than the round in progress; metrics report how far the run got, like
	// every other failure. (Granularity is per round: a single Step that
	// never returns cannot be preempted cooperatively.) One context bounds
	// every run on the Network, so a multi-phase pipeline shares a single
	// budget; a wall-clock budget is context.WithTimeout.
	Ctx context.Context
	// Hooks, when non-nil, intercepts engine events for fault injection
	// (see internal/chaos). Production runs leave it nil; the nil check is
	// the only cost on the hot paths.
	Hooks Hooks
	// Observer, when non-nil, receives per-round telemetry (round
	// boundaries, traffic counters, engine scheduler events — see
	// internal/obs for the sinks). Observers can never change an outcome:
	// the conformance suite proves runs are byte-identical with and
	// without one. Like Hooks, nil costs one branch on the hot paths.
	Observer Observer
}

// Errors reported by Run.
var (
	// ErrBandwidth is returned when a CONGEST message exceeds the budget.
	ErrBandwidth = errors.New("congest: message exceeds bandwidth budget")
	// ErrMaxRounds is returned when a run exceeds Config.MaxRounds.
	ErrMaxRounds = errors.New("congest: exceeded MaxRounds")
	// ErrConfig is wrapped by every error reporting caller misuse — an
	// invalid Config, CkptSpec or engine name — as opposed to a run
	// failing. Callers distinguish "fix your configuration" from "the run
	// failed" with errors.Is(err, ErrConfig) or SentinelClass's "config".
	ErrConfig = errors.New("congest: invalid configuration")
)

// Network is a simulated synchronous network over a fixed graph.
type Network struct {
	g   *graph.Graph
	cfg Config

	// bwBits is the per-edge per-round bit budget, computed once at
	// NewNetwork (graph and config are immutable afterwards) so the Send
	// hot path reads a field instead of recomputing bits.Len-and-multiply
	// on every message (see BenchmarkNodeSend).
	bwBits int

	// topo is the CSR slot layout used by the stepped engine, built lazily
	// once per Network and shared across runs.
	topoOnce sync.Once
	topo     *topology
}

// NewNetwork creates a network over g.
func NewNetwork(g *graph.Graph, cfg Config) *Network {
	if cfg.Model == 0 {
		cfg.Model = Congest
	}
	if cfg.BandwidthFactor == 0 {
		cfg.BandwidthFactor = 16
	}
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = 10_000_000
	}
	net := &Network{g: g, cfg: cfg}
	if cfg.Model != Local {
		logn := bits.Len(uint(g.N()))
		if logn < 1 {
			logn = 1
		}
		net.bwBits = cfg.BandwidthFactor * logn
	}
	return net
}

// Graph returns the underlying communication graph.
func (net *Network) Graph() *graph.Graph { return net.g }

// BandwidthBits returns the per-edge per-round bit budget (0 for LOCAL).
func (net *Network) BandwidthBits() int { return net.bwBits }

// Incoming is a message delivered to a node: the local port it arrived on
// and its payload.
type Incoming struct {
	Port    int
	Payload []byte
}

// Program is the code executed by every node, written in blocking style:
// call Send to queue messages, then Sync to advance one synchronous round
// and receive. Returning ends the node's participation (it stays silent and
// discards incoming messages).
type Program func(nd *Node)

// scheduler is the engine-side contract behind a Node: it advances the
// node through the synchronous barrier and exposes the round counter.
type scheduler interface {
	// barrier ends the node's round: its outbox is delivered and, once all
	// running nodes have arrived, nd.inbox holds the next round's messages
	// sorted by port.
	barrier(nd *Node)
	// currentRound returns the number of deliveries performed so far.
	currentRound() int
}

// Node is the per-node API available inside a Program.
type Node struct {
	net     *Network
	sched   scheduler
	v       int
	outbox  []outMsg
	inbox   []Incoming
	stopped bool
	// op counts the node's compute opportunities: 0 during Init / before the
	// first Sync, r after the r-th Sync (= Step round r-1). It addresses
	// injected faults identically across engines and program forms; unused
	// (and not maintained) when Config.Hooks is nil.
	op int
	// arena is the payload arena of the worker driving this node; nil on the
	// goroutine-backed engines, where PayloadBuf falls back to make.
	arena *payloadArena
}

type outMsg struct {
	port    int
	payload []byte
}

// V returns the node's index in 0..n-1. Programs should use V only for
// host-side bookkeeping (output slots); distributed decisions must be based
// on ID, degrees and messages, as in the real model.
func (nd *Node) V() int { return nd.v }

// ID returns the node's unique identifier.
func (nd *Node) ID() int64 { return nd.net.g.ID(nd.v) }

// N returns the number of nodes in the network, known to all nodes (the
// standard assumption that fixes the O(log n) message size).
func (nd *Node) N() int { return nd.net.g.N() }

// Degree returns the number of incident edges (ports 0..Degree()-1).
func (nd *Node) Degree() int { return nd.net.g.Degree(nd.v) }

// NeighborID returns the identifier of the neighbour on the given port.
// Knowing neighbour identifiers is the KT-1 assumption the paper uses
// ("v knows its neighbors' IDs", proof of Lemma 3.4).
func (nd *Node) NeighborID(port int) int64 {
	return nd.net.g.ID(int(nd.net.g.Neighbors(nd.v)[port]))
}

// NeighborIndex returns the node index of the neighbour on the given port
// (host-side bookkeeping only, like V).
func (nd *Node) NeighborIndex(port int) int {
	return int(nd.net.g.Neighbors(nd.v)[port])
}

// Round returns the current round number (0 before the first Sync).
func (nd *Node) Round() int { return nd.sched.currentRound() }

// Send queues a message to the neighbour on the given port for delivery at
// the next Sync. At most one message per port per round; a second Send on
// the same port in one round replaces the first. Zero-length payloads are
// canonicalized to nil on delivery, so the representation of an empty
// message is identical on every engine.
func (nd *Node) Send(port int, payload []byte) {
	if port < 0 || port >= nd.Degree() {
		panic(runError{fmt.Errorf("congest: node %d sends on invalid port %d", nd.v, port)})
	}
	if len(payload) == 0 {
		payload = nil
	}
	if h := nd.net.cfg.Hooks; h != nil {
		// Before the bandwidth check, so a payload grown past the budget
		// fails identically on every engine; re-canonicalize afterwards so
		// an injected truncation-to-empty stays representation-identical.
		payload = h.AlterPayload(nd.v, port, nd.op, payload)
		if len(payload) == 0 {
			payload = nil
		}
	}
	if budget := nd.net.bwBits; budget > 0 && len(payload)*8 > budget {
		panic(runError{fmt.Errorf("%w: node %d sent %d bits, budget %d",
			ErrBandwidth, nd.v, len(payload)*8, budget)})
	}
	for i := range nd.outbox {
		if nd.outbox[i].port == port {
			nd.outbox[i].payload = payload
			return
		}
	}
	nd.outbox = append(nd.outbox, outMsg{port: port, payload: payload})
}

// Broadcast queues the same payload on every port.
func (nd *Node) Broadcast(payload []byte) {
	for p := 0; p < nd.Degree(); p++ {
		nd.Send(p, payload)
	}
}

// PayloadBuf returns a zero-length scratch buffer with the given capacity
// for building a payload to Send in the current round. On EngineStepped the
// buffer is bump-allocated from the worker's scratch arena and recycled at
// the end of the round — deposit copies the sent bytes into the packed slot
// arena — eliminating the per-send allocation; on the goroutine-backed
// engines it falls back to make. Buffers obtained here must be filled and
// sent in the same Init/Step call that allocated them, and a received
// payload (a view over the sender's slot arena) is only valid until the
// receiving Step returns (copy it to retain it).
func (nd *Node) PayloadBuf(capacity int) []byte {
	if nd.arena != nil {
		return nd.arena.alloc(capacity)
	}
	return make([]byte, 0, capacity)
}

// Sync ends the node's current round: queued messages are exchanged and the
// messages sent to this node are returned, sorted by port. Sync blocks until
// every running node has also called Sync (or returned).
func (nd *Node) Sync() []Incoming {
	nd.sched.barrier(nd)
	if h := nd.net.cfg.Hooks; h != nil {
		// The node is past the barrier, about to start compute opportunity
		// op (= Step round op-1 in stepped form). A crash here ends its
		// participation silently: the unwound goroutine's deferred finish
		// delivers an empty outbox, matching the stepped engine's handling.
		nd.op++
		if h.Crash(nd.v, nd.op) {
			nd.inbox = nil
			panic(crashStop{})
		}
	}
	in := nd.inbox
	nd.inbox = nil
	return in
}

// Metrics summarizes a run. ChargedRounds accounts for structurally
// simulated phases (see Ledger); TotalRounds is the sum.
type Metrics struct {
	Rounds        int     // synchronous rounds executed by the engine
	ChargedRounds int     // rounds charged by structural simulation
	Messages      int64   // messages delivered
	Bits          int64   // payload bits delivered
	MaxMsgBits    int     // largest single message
	BandwidthBits int     // per-edge per-round budget (0 = unbounded)
	Model         Model   // model the run used
	AvgMsgBits    float64 // mean payload size
}

// Add merges other into m (used to combine pipeline stages). AvgMsgBits is
// recomputed from the merged totals — the message-weighted mean, not the
// mean of the two stage means — and MaxMsgBits is the max of the maxima,
// so unequal stages merge correctly (see TestMetricsAddUnequalStages).
func (m *Metrics) Add(other Metrics) {
	m.Rounds += other.Rounds
	m.ChargedRounds += other.ChargedRounds
	m.Messages += other.Messages
	m.Bits += other.Bits
	if other.MaxMsgBits > m.MaxMsgBits {
		m.MaxMsgBits = other.MaxMsgBits
	}
	if m.BandwidthBits == 0 {
		m.BandwidthBits = other.BandwidthBits
	}
	if m.Model == 0 {
		m.Model = other.Model
	}
	if m.Messages > 0 {
		m.AvgMsgBits = float64(m.Bits) / float64(m.Messages)
	}
}

// TotalRounds returns executed plus charged rounds.
func (m Metrics) TotalRounds() int { return m.Rounds + m.ChargedRounds }

// runError wraps an error thrown inside a node goroutine so the engine can
// distinguish simulator-raised conditions from program bugs.
type runError struct{ err error }

// Run executes prog on every node until all nodes return. It returns the
// collected metrics. Any simulator violation (bandwidth, bad port) or panic
// inside a program aborts the run with an error. A blocking Program needs a
// goroutine stack per node while parked at Sync, so it runs on the goroutine
// engine whatever Config.Engine says; only StepPrograms (see RunStepped)
// execute stacklessly under EngineStepped.
func (net *Network) Run(prog Program) (Metrics, error) {
	return net.runGoroutine(prog)
}

// recoverNode converts a panic inside a node's program into the run failure
// reported by the engine via fail.
func recoverNode(v int, fail func(error)) {
	if r := recover(); r != nil {
		if _, ok := r.(crashStop); ok {
			// An injected crash-stop: the node just stops participating;
			// the run itself is healthy.
			return
		}
		if re, ok := r.(runError); ok {
			fail(re.err)
			return
		}
		fail(fmt.Errorf("congest: node %d panicked: %v", v, r))
	}
}

// portOf returns the port index of neighbour u at node v.
func portOf(g *graph.Graph, v, u int) int {
	list := g.Neighbors(v)
	lo, hi := 0, len(list)
	for lo < hi {
		mid := (lo + hi) / 2
		if int(list[mid]) < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
