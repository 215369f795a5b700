package congest

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"congestds/internal/graph"
)

// The stepped engine executes StepPrograms without per-node goroutines. The
// nodes are partitioned into contiguous chunks (more chunks than workers),
// and a fixed worker pool (GOMAXPROCS workers) sweeps all live nodes once
// per round, claiming chunks off a shared atomic counter:
//
//	claim the next unprocessed chunk            (one atomic add)
//	for each live node of the chunk:
//	  collect inbox from the read slot records  (clearing the records)
//	  call Init / Step                          (the node's compute)
//	  deposit the outbox into the write records (unique-writer array stores)
//
// then the engine flips the double-buffered record array (one record per
// directed edge, in CSR order) by round parity and the next sweep begins.
// There is no barrier protocol at all: the sweep IS the round, so the only
// synchronization is one WaitGroup arrive/wait per round for the whole
// pool, not per node.
//
// Chunk claiming is what keeps the pool busy on uneven rounds: with the
// static node ranges the engine used before, one slow chunk (a hot spot of
// expensive Steps, or nodes whose neighbourhood is much denser than the
// rest) stalled the whole round while the other workers idled at the
// WaitGroup. With claiming, a worker that finishes its chunk immediately
// grabs the next one, so the round's tail is one chunk, not one n/P range.
// Which worker sweeps a chunk never affects the outcome: deposits land in
// per-chunk arenas addressed by the static node→chunk map, so outputs and
// metrics stay byte-identical for every worker count and interleaving (the
// conformance suite and TestSteppedStealingDeterminism enforce this).
//
// Message slots are packed slotRecs (8 bytes) instead of 24-byte []byte
// slice headers: a deposit copies the payload bytes into the sending
// chunk's three-generation slotArena and stores the (offset, tagged length)
// pair; collect rematerializes the []byte view over the arena bytes.
// Halving-and-then-some the per-edge delivery state is what keeps
// million-node graphs in bounded memory, and the record arrays are
// pointer-free, so the GC never scans them (a [][]byte layout makes it
// walk 8 M slice headers per cycle on a million-node torus).
//
// Memory per node is the Node struct, the interface value of its
// StepProgram and whatever state the program itself keeps — a few machine
// words instead of a goroutine stack. Payloads built via Node.PayloadBuf
// are bump-allocated from the sweeping worker's scratch arena and recycled
// without GC traffic.
//
// Semantics are identical to the goroutine engine; the conformance suite
// runs the stepped program corpus on both engines and requires
// byte-identical outputs and metrics — on failed runs too.

// errSyncInStep reports a StepProgram calling Node.Sync.
var errSyncInStep = errors.New("congest: StepProgram must not call Sync (the engine drives rounds)")

// errSlotArenaFull reports a chunk receiving more payload bytes in one
// round than slotRec offsets can address (LOCAL-model runs only; the
// CONGEST budget keeps rounds ~6 orders of magnitude below the limit).
var errSlotArenaFull = errors.New("congest: chunk exceeded 4 GiB of payload bytes in one round (slot records are 32-bit)")

// minChunkNodes keeps chunks coarse enough that the claim counter and the
// per-chunk bookkeeping stay invisible next to the sweep itself.
const minChunkNodes = 256

// chunksPerWorker oversubscribes the chunk count relative to the pool so a
// slow chunk can be compensated by the other workers. 8 balances steal
// granularity against per-chunk overhead.
const chunksPerWorker = 8

// topology is the CSR slot layout of a graph, shared by every stepped run
// on the same Network.
type topology struct {
	// inOff[v]..inOff[v+1] are node v's inbox slots, one per port, in port
	// order. The same range indexes v's out-edges: out-edge (v, port p) is
	// entry inOff[v]+p of destSlot.
	inOff []int32
	// destSlot[inOff[v]+p] is the inbox slot of the neighbour on v's port p,
	// i.e. inOff[u]+q where u is that neighbour and q is the port of v at u.
	destSlot []int32
}

func buildTopology(net *Network) *topology {
	g := net.g
	n := g.N()
	t := &topology{inOff: make([]int32, n+1)}
	for v := 0; v < n; v++ {
		t.inOff[v+1] = t.inOff[v] + int32(g.Degree(v))
	}
	t.destSlot = make([]int32, 2*g.M())
	for u := 0; u < n; u++ {
		for q, w := range g.Neighbors(u) {
			v := int(w)
			p := portOf(g, v, u) // u sits on port p of v
			t.destSlot[t.inOff[v]+int32(p)] = t.inOff[u] + int32(q)
		}
	}
	return t
}

// topology returns the Network's cached CSR slot layout, building it on
// first use.
func (net *Network) topology() *topology {
	net.topoOnce.Do(func() { net.topo = buildTopology(net) })
	return net.topo
}

// depositOutboxPacked is the stepped engine's deposit: payload bytes are
// copied into the depositing worker's slotArena and each slot gets a packed
// {offset, tagged length} record — 8 bytes per slot in each parity
// buffer. The tagged length (slotRec) marks absent and present-but-empty
// messages. The metrics accounting must match the goroutine engine's
// deposit exactly: the cross-engine byte-identity contract depends on the
// two never diverging (the conformance suite compares the metrics of every
// run, failed runs included).
// ok is false when the arena outgrew the records' 32-bit offset range; the
// caller must fail the run (records past the limit hold wrapped offsets,
// but the failure stops the round from being delivered, so no reader sees
// them).
func (t *topology) depositOutboxPacked(v int, outbox []outMsg, recs []slotRec, arena *slotArena, phase int, hist *MsgHist) (msgs, bitsSum int64, maxB int, ok bool) {
	base := t.inOff[v]
	// The generation slice is carried through the loop and stored back once:
	// an outbox-grained push, not a per-message one.
	g := arena.gens[phase%3]
	// Broadcast queues one payload slice on every port; records are views,
	// so the bytes go into the arena once and the ports share the offset.
	var prev []byte
	var prevOff uint32
	for _, m := range outbox {
		rec := slotRec{ln: 1} // present but empty (Send canonicalized it to nil)
		if n := len(m.payload); n > 0 {
			if len(prev) == n && &prev[0] == &m.payload[0] {
				rec.off = prevOff
			} else {
				rec.off = uint32(len(g))
				g = append(g, m.payload...)
				prev, prevOff = m.payload, rec.off
			}
			rec.ln = uint32(n) + 1
		}
		recs[t.destSlot[base+int32(m.port)]] = rec
		msgs++
		b := len(m.payload) * 8
		bitsSum += int64(b)
		if b > maxB {
			maxB = b
		}
		if hist != nil {
			hist.observe(len(m.payload))
		}
	}
	arena.gens[phase%3] = g
	ok = int64(len(g)) <= slotPayloadLimit
	return
}

// steppedChunk owns a contiguous node range and everything a sweep of that
// range mutates. Exactly one worker processes a chunk per round (the claim
// counter hands each index out once), so chunk state needs no locking; the
// node→chunk map is static, which is what lets receivers locate a sender's
// payload bytes no matter which worker happened to sweep the sender.
type steppedChunk struct {
	lo    int
	alive []int32       // live node indices in this chunk's range, in order
	progs []StepProgram // indexed by v-lo
	slots slotArena     // payload bytes behind this chunk's deposited records
}

// steppedWorker is one pool goroutine's private scratch; it carries no node
// state, so workers can sweep any chunk.
type steppedWorker struct {
	eng    *steppedEngine
	id     int          // pool index, for the observer's per-worker lanes
	arena  payloadArena // PayloadBuf scratch, truncated every round
	inbox  []Incoming   // per-node scratch, reused across nodes and rounds
	outbox []outMsg     // per-node scratch: a node only holds an outbox while
	// its Init/Step runs, so one backing array per worker replaces one per
	// node — on a million-node graph that alone saves ~100 MB

	// Sender-resolution cache for collect, persisted across the nodes of a
	// sweep (reset each phase: the delivered generation changes): payload
	// views for senders in [srcLo, srcHi) come from srcBytes. Neighbouring
	// nodes share neighbours, so the hit rate is near-total and the
	// division in the miss path all but disappears from the profile.
	srcLo, srcHi int
	srcBytes     []byte

	msgs    int64
	bits    int64
	maxBits int
	hist    MsgHist // maintained only when eng.obs is set
}

// steppedEngine coordinates one stepped run.
type steppedEngine struct {
	net   *Network
	topo  *topology
	round int    // deliveries performed; written only by the driver between sweeps
	fp    uint32 // graph fingerprint; computed only for checkpointed runs
	// recs[(round+1)&1] is the write record array during the current sweep;
	// recs[round&1] holds the records being delivered from it. 8 B per
	// directed edge per parity, vs 24 B for a [][]byte slot array.
	recs      [2][]slotRec
	chunkSize int // nodes per chunk; node v belongs to chunks[v/chunkSize]
	nodes     []Node
	chunks    []steppedChunk
	workers   []steppedWorker

	// cursor is the chunk claim counter: workers atomically take the next
	// chunk index until the sweep runs out. Reset by the driver between
	// rounds (never mid-sweep, so resets need no synchronization beyond the
	// round WaitGroup).
	cursor atomic.Int64

	failMu  sync.Mutex
	failure error

	metrics Metrics
	// obs mirrors net.cfg.Observer (nil = telemetry off).
	obs Observer
}

// runStepped executes the stepped program built by f on every node.
func (net *Network) runStepped(f StepFactory) (Metrics, error) {
	return net.runSteppedCkpt(f, CkptSpec{})
}

// runSteppedCkpt is the stepped driver behind RunStepped and RunSteppedCkpt.
// With a zero spec it is a plain run. With a spec it additionally resumes
// from spec.Path when that file exists (rebuilding round counter, live set,
// program state, pending slot records and accumulated metrics) and writes a
// checkpoint every spec.Every round boundaries. Resumed runs are
// byte-identical to uninterrupted ones: the sweep schedule never affects
// outcomes (see the work-stealing notes above), and the checkpoint captures
// exactly the state a round boundary carries forward.
func (net *Network) runSteppedCkpt(f StepFactory, spec CkptSpec) (Metrics, error) {
	n := net.g.N()
	eng := &steppedEngine{net: net}
	eng.metrics.Model = net.cfg.Model
	eng.metrics.BandwidthBits = net.BandwidthBits()
	eng.obs = net.cfg.Observer
	if n == 0 {
		return eng.metrics, nil
	}
	var cp *Ckpt
	if spec.Path != "" {
		eng.fp = graph.Fingerprint(net.g)
		data, err := os.ReadFile(spec.Path)
		switch {
		case err == nil:
			if cp, err = DecodeCkpt(data); err != nil {
				return eng.metrics, err
			}
		case !errors.Is(err, fs.ErrNotExist):
			return eng.metrics, fmt.Errorf("congest: reading checkpoint: %w", err)
		}
	}
	eng.topo = net.topology()
	slots := len(eng.topo.destSlot)
	eng.recs[0] = make([]slotRec, slots)
	eng.recs[1] = make([]slotRec, slots)

	p := runtime.GOMAXPROCS(0)
	if p < 1 {
		p = 1
	}
	if p > n {
		p = n
	}
	// Oversubscribe the chunk count so workers can steal: aim for
	// chunksPerWorker chunks per pool goroutine, floored at minChunkNodes
	// nodes per chunk so tiny graphs stay a single claim.
	chunk := (n + chunksPerWorker*p - 1) / (chunksPerWorker * p)
	if chunk < minChunkNodes {
		chunk = minChunkNodes
	}
	if chunk > n {
		chunk = n
	}
	if cp != nil {
		// Resume under the checkpointed chunk geometry: the restored arena
		// bytes are addressed through the node→chunk map, and reusing it
		// keeps the layout identical even if GOMAXPROCS changed between the
		// two processes (outcomes never depend on it either way).
		chunk = cp.ChunkSize
	}
	numChunks := (n + chunk - 1) / chunk
	eng.chunkSize = chunk
	eng.nodes = make([]Node, n)
	eng.chunks = make([]steppedChunk, numChunks)
	for c := range eng.chunks {
		lo := c * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		ck := &eng.chunks[c]
		ck.lo = lo
		ck.alive = make([]int32, 0, hi-lo)
		ck.progs = make([]StepProgram, hi-lo)
		for v := lo; v < hi; v++ {
			nd := &eng.nodes[v]
			nd.net, nd.sched, nd.v = net, eng, v
			if cp == nil {
				ck.alive = append(ck.alive, int32(v))
			} else {
				// Assume done until the checkpoint's live list says otherwise.
				nd.stopped = true
			}
		}
	}
	if cp != nil {
		if err := eng.restore(cp, spec, f); err != nil {
			return eng.metrics, err
		}
	}
	eng.workers = make([]steppedWorker, p)

	// Persistent worker pool: one goroutine per worker for the whole run,
	// woken per round with its phase number; each drains the chunk claim
	// counter until the sweep is exhausted.
	var wg sync.WaitGroup
	starts := make([]chan int, p)
	for w := range eng.workers {
		eng.workers[w].eng = eng
		eng.workers[w].id = w
		starts[w] = make(chan int, 1)
		go func(wk *steppedWorker, start chan int) {
			for phase := range start {
				wk.sweep(f, phase)
				wg.Done()
			}
		}(&eng.workers[w], starts[w])
	}

	// A fresh run starts at phase 0 (Init); a resumed one at the
	// checkpointed round boundary, sweeping Step(round-1) next — exactly
	// the sweep the interrupted run would have performed.
	for phase := eng.round; ; phase++ {
		if eng.obs != nil {
			eng.obs.RoundStart(phase + 1)
		}
		eng.cursor.Store(0)
		wg.Add(p)
		for w := range starts {
			starts[w] <- phase
		}
		wg.Wait()
		if eng.failure != nil {
			break
		}
		aliveTotal := 0
		for c := range eng.chunks {
			aliveTotal += len(eng.chunks[c].alive)
		}
		if aliveTotal == 0 {
			// All nodes done: final sends are counted but, as on the
			// blocking engines, no further delivery happens.
			break
		}
		eng.round++ // delivery: the record arrays trade roles by parity
		roundErr := net.checkRound(eng.round)
		if eng.obs != nil {
			// RoundEnd fires iff the round counter advanced — even when
			// checkRound just failed the round (matching the blocking
			// engines). The pool is parked, so all state reads are plain.
			st := RoundStats{Round: eng.round, Live: aliveTotal}
			for w := range eng.workers {
				wk := &eng.workers[w]
				st.Messages += wk.msgs
				st.Bits += wk.bits
				if wk.maxBits > st.MaxMsgBits {
					st.MaxMsgBits = wk.maxBits
				}
				st.Hist.Merge(wk.hist)
			}
			var arenaBytes int64
			for c := range eng.chunks {
				arenaBytes += int64(len(eng.chunks[c].slots.gens[phase%3]))
			}
			eng.obs.Event(Event{Kind: EvArena, Round: eng.round, Node: -1, Value: arenaBytes})
			eng.obs.RoundEnd(st)
		}
		if roundErr != nil {
			eng.fail(roundErr)
			break
		}
		if spec.Every > 0 && eng.round%spec.Every == 0 {
			// The pool is parked between sweeps, so the driver reads all
			// engine state without synchronization. A write failure aborts
			// the run: a checkpointed run that silently stops checkpointing
			// would be worse than a loud failure.
			if err := eng.writeCkpt(spec); err != nil {
				eng.fail(err)
				break
			}
			if eng.obs != nil {
				eng.obs.Event(Event{Kind: EvCkpt, Round: eng.round, Node: -1})
			}
		}
	}
	for w := range starts {
		close(starts[w])
	}

	for w := range eng.workers {
		wk := &eng.workers[w]
		eng.metrics.Messages += wk.msgs
		eng.metrics.Bits += wk.bits
		if wk.maxBits > eng.metrics.MaxMsgBits {
			eng.metrics.MaxMsgBits = wk.maxBits
		}
	}
	// Failed runs report how far they got — the same Rounds/AvgMsgBits a
	// failing blocking engine reports, so callers can diagnose ErrMaxRounds
	// and ErrBandwidth from the metrics alone.
	eng.metrics.Rounds = eng.round
	if eng.metrics.Messages > 0 {
		eng.metrics.AvgMsgBits = float64(eng.metrics.Bits) / float64(eng.metrics.Messages)
	}
	return eng.metrics, eng.failure
}

// sweep runs one round on this worker: claim chunks off the shared cursor
// until none remain, processing each claimed chunk's live nodes.
func (w *steppedWorker) sweep(f StepFactory, phase int) {
	eng := w.eng
	w.arena.reset()
	// Invalidate the sender cache: the delivered generation changed.
	w.srcLo, w.srcHi, w.srcBytes = 0, 0, nil
	if eng.obs != nil {
		eng.obs.Event(Event{Kind: EvSweepStart, Round: phase + 1, Node: w.id})
	}
	claimed := 0
	for {
		c := int(eng.cursor.Add(1)) - 1
		if c >= len(eng.chunks) {
			break
		}
		claimed++
		if c == 0 {
			if h := eng.net.cfg.Hooks; h != nil {
				// Timing-only worker stall: delays whichever worker claimed
				// the first chunk, perturbing the stealing schedule — the
				// conformance suite proves outcomes don't move.
				h.Stall(phase)
			}
		}
		w.sweepChunk(f, phase, &eng.chunks[c])
	}
	if eng.obs != nil {
		// The start/end receipt stamps bound the worker's busy span; Value
		// is its share of the round's chunks (the steal distribution).
		eng.obs.Event(Event{Kind: EvSweepEnd, Round: phase + 1, Node: w.id, Value: int64(claimed)})
	}
}

// sweepChunk runs one round over one chunk's live nodes: collect, step,
// deposit. Phase 0 instantiates the programs and calls Init instead.
func (w *steppedWorker) sweepChunk(f StepFactory, phase int, ck *steppedChunk) {
	eng := w.eng
	var histp *MsgHist
	if eng.obs != nil {
		histp = &w.hist
	}
	ck.slots.reset(phase)
	writeRecs := eng.recs[(phase+1)&1]
	readRecs := eng.recs[phase&1]
	gen := (phase + 2) % 3 // the generation delivered during this sweep
	kept := ck.alive[:0]
	for _, v32 := range ck.alive {
		v := int(v32)
		nd := &eng.nodes[v]
		nd.arena = &w.arena // the sweeping worker's scratch, not a fixed owner
		nd.outbox = w.outbox[:0]
		hooks := eng.net.cfg.Hooks
		if hooks != nil {
			nd.op = phase // compute opportunity: phase 0 = Init, phase p = Step(p-1)
		}
		var done bool
		if hooks != nil && hooks.Crash(v, phase) {
			// Crash-stop: as if the program returned done at the start of
			// this opportunity with an empty outbox. The blocking engines'
			// counterpart is the crashStop unwind in Sync / runProg.
			done = true
		} else if phase == 0 {
			done = w.initNode(f, ck, nd)
		} else {
			in := w.collect(readRecs, gen, v)
			done = w.stepNode(ck, nd, phase-1, in)
		}
		// Deposit unconditionally: sends queued before a final return or a
		// panic are delivered and counted, like the blocking engines'
		// finish semantics.
		if len(nd.outbox) > 0 {
			msgs, bits, maxB, ok := eng.topo.depositOutboxPacked(v, nd.outbox, writeRecs, &ck.slots, phase, histp)
			w.msgs += msgs
			w.bits += bits
			if maxB > w.maxBits {
				w.maxBits = maxB
			}
			if !ok {
				eng.fail(fmt.Errorf("congest: node %d: %w", v, errSlotArenaFull))
				done = true
			}
		}
		w.outbox = nd.outbox[:0] // reclaim the (possibly grown) backing
		nd.outbox = nil
		if done {
			nd.stopped = true
			ck.progs[v-ck.lo] = nil
		} else {
			kept = append(kept, v32)
		}
	}
	ck.alive = kept
}

// collect gathers node v's inbox from the delivered records into the
// worker's scratch slice (valid only until the node's Step returns),
// clearing the records for reuse as the write array two rounds later.
// Payload views point straight into the sending chunks' slot arenas; the
// sender of slot inOff[v]+q is v's neighbour on port q, so its chunk — and
// with it the generation (gen) holding the bytes — follows from the
// adjacency list. The delivered generation was sealed at the previous
// round's barrier and no worker touches it this round (sweeps write
// generation phase%3 only), so cross-chunk reads are race-free no matter
// which workers claimed the sending chunks.
func (w *steppedWorker) collect(readRecs []slotRec, gen, v int) []Incoming {
	eng := w.eng
	off, end := eng.topo.inOff[v], eng.topo.inOff[v+1]
	in := w.inbox[:0]
	nbrs := eng.net.g.Neighbors(v)
	// The worker's sender cache is keyed by the sender's chunk range, so the
	// hit path is two compares — no division, no arena lookup.
	srcLo, srcHi, srcBytes := w.srcLo, w.srcHi, w.srcBytes
	for i := off; i < end; i++ {
		r := readRecs[i]
		if r.ln == 0 {
			continue
		}
		readRecs[i] = slotRec{}
		q := int(i - off)
		var pl []byte
		if r.ln > 1 {
			if u := int(nbrs[q]); u < srcLo || u >= srcHi {
				cIdx := u / eng.chunkSize
				srcLo = cIdx * eng.chunkSize
				srcHi = srcLo + eng.chunkSize
				srcBytes = eng.chunks[cIdx].slots.gens[gen]
			}
			hi := r.off + r.ln - 1
			pl = srcBytes[r.off:hi:hi]
		}
		in = append(in, Incoming{Port: q, Payload: pl})
	}
	w.srcLo, w.srcHi, w.srcBytes = srcLo, srcHi, srcBytes
	w.inbox = in
	return in
}

// initNode builds the node's program and runs Init, converting panics into
// the run failure. A panicked node is treated as done.
func (w *steppedWorker) initNode(f StepFactory, ck *steppedChunk, nd *Node) (done bool) {
	defer w.recoverStep(nd, &done)
	prog := f(nd)
	ck.progs[nd.v-ck.lo] = prog
	return prog.Init(nd)
}

// stepNode runs one Step, converting panics into the run failure.
func (w *steppedWorker) stepNode(ck *steppedChunk, nd *Node, round int, in []Incoming) (done bool) {
	defer w.recoverStep(nd, &done)
	return ck.progs[nd.v-ck.lo].Step(nd, round, in)
}

// recoverStep records a program panic as the run failure. The sweep keeps
// processing the remaining nodes of the round — the blocking engines let
// concurrently running nodes complete their round too — and the driver
// aborts before the next delivery.
func (w *steppedWorker) recoverStep(nd *Node, done *bool) {
	if r := recover(); r != nil {
		if re, ok := r.(runError); ok {
			w.eng.fail(re.err)
		} else {
			w.eng.fail(fmt.Errorf("congest: node %d panicked: %v", nd.v, r))
		}
		*done = true
	}
}

// fail records the first failure. The driver observes it at the round
// barrier, so no wake-up machinery is needed.
func (eng *steppedEngine) fail(err error) {
	eng.failMu.Lock()
	if eng.failure == nil {
		eng.failure = err
	}
	eng.failMu.Unlock()
}

func (eng *steppedEngine) currentRound() int { return eng.round }

// barrier rejects Sync from StepPrograms: the engine owns the round loop.
func (eng *steppedEngine) barrier(nd *Node) {
	panic(runError{fmt.Errorf("%w: node %d", errSyncInStep, nd.v)})
}
