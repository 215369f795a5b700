package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"congestds/internal/obs"
)

// Lanes of the exported trace. Batch workloads put every span of an op on
// laneOps, so layer calls nest under their op and engine rounds nest under
// the solve that ran them. serve-mix gives each client its own lane
// (laneClient+c, with the handler span of each request nested under the
// client's request span) and puts engine rounds, which run on server
// goroutines, on lanes from laneEngine upwards.
const (
	laneSetup  = 1
	laneOps    = 2
	laneClient = 10
	laneEngine = 100
)

// Span op values that are not op or request indices.
const (
	opSetup = -1
	// opEngine marks serve-mix engine rounds, which belong to the measured
	// window but to no single request.
	opEngine = -2
)

// span is one timed call recorded by the benchmark's own code: a layer
// call, an op or request, or one engine round reported through obs.
type span struct {
	Name   string
	Op     int // op or request index; opSetup during set-up, opEngine for serve-mix rounds
	Parent int // index into tracer.spans; -1 for a root
	Lane   int
	Start  int64 // ns since the tracer's origin
	End    int64
	Msgs   int64 // engine rounds only: messages delivered in the round
	Bits   int64
}

// tracer keeps spans in memory while a traced run measures and writes them
// out once it ends. With tracing off every method is a no-op apart from
// reading the clock, so untraced runs measure the program alone.
type tracer struct {
	enabled bool
	t0      time.Time

	mu        sync.Mutex
	spans     []span
	laneEnds  []int64 // last end per engine lane, for packing concurrent runs
	measureAt int64   // start of the measured window (-1 before it), for slice parity
}

func newTracer(enabled bool) *tracer {
	return &tracer{enabled: enabled, t0: time.Now(), measureAt: -1}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// startWindow marks the start of the measured window; slice parity counts
// from here.
func (t *tracer) startWindow() {
	t.mu.Lock()
	t.measureAt = t.now()
	t.mu.Unlock()
}

// traceSlice is the length of the alternating untraced and traced periods
// of a traced serve-mix window, so that one run yields traced and untraced
// figures of the same traffic side by side. Batch workloads alternate per
// op instead and do not call active.
const traceSlice = time.Second

// active reports whether serve-mix records spans at this moment: in a
// traced run, inside the measured window, in an odd slice.
func (t *tracer) active() bool {
	if !t.enabled {
		return false
	}
	t.mu.Lock()
	at := t.measureAt
	t.mu.Unlock()
	if at < 0 {
		return false
	}
	return ((t.now()-at)/int64(traceSlice))%2 == 1
}

// begin opens a span and returns its id, or -1 when on is false.
func (t *tracer) begin(on bool, name string, op, parent, lane int) int {
	if !on {
		return -1
	}
	at := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Lane: lane, Start: at, End: at})
	return len(t.spans) - 1
}

// end closes span id (a no-op for -1).
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	at := t.now()
	t.mu.Lock()
	t.spans[id].End = at
	t.mu.Unlock()
}

// call runs fn as the span name under parent and returns its wall time in
// seconds, measured whether or not the span is recorded.
func (t *tracer) call(on bool, name string, op, parent, lane int, fn func()) float64 {
	id := t.begin(on, name, op, parent, lane)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.end(id)
	return d.Seconds()
}

// addRound records an engine round that ended now and lasted wallNs. A
// negative lane packs the round onto the first engine lane that is free
// at its start, so concurrent runs land on separate lanes.
func (t *tracer) addRound(op, parent, lane int, wallNs, msgs, bits int64) {
	end := t.now()
	start := end - wallNs
	t.mu.Lock()
	defer t.mu.Unlock()
	if lane < 0 {
		i := 0
		for i < len(t.laneEnds) && t.laneEnds[i] > start {
			i++
		}
		if i == len(t.laneEnds) {
			t.laneEnds = append(t.laneEnds, 0)
		}
		t.laneEnds[i] = end
		lane = laneEngine + i
	}
	t.spans = append(t.spans, span{
		Name: "congest.round", Op: op, Parent: parent, Lane: lane,
		Start: start, End: end, Msgs: msgs, Bits: bits,
	})
}

// roundSink is the obs.Sink the benchmark attaches to an obs.Recorder. It
// turns each stamped round record into a congest.round span and keeps the
// engine counters. Recorders serialize their calls, but serve-mix shares
// one sink between the per-run Recorders of concurrent runs, hence the
// lock.
type roundSink struct {
	t      *tracer
	op     int
	parent int
	lane   int          // -1: pack onto engine lanes
	off    *atomic.Bool // nil: always record; else record while false

	mu        sync.Mutex
	rounds    int
	recorders int // records of round 1 of segment 0: one per Recorder, so one per serve run
	wallNs    int64
	msgs      int64
	bits      int64
	durs      []int64
}

var _ obs.Sink = (*roundSink)(nil)

// Round implements obs.Sink.
func (s *roundSink) Round(r obs.RoundRec) {
	if s.off != nil && s.off.Load() {
		return
	}
	s.t.addRound(s.op, s.parent, s.lane, r.WallNs, r.Msgs, r.Bits)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rounds++
	if r.Seg == 0 && r.Round == 1 {
		s.recorders++
	}
	s.wallNs += r.WallNs
	s.msgs += r.Msgs
	s.bits += r.Bits
	s.durs = append(s.durs, r.WallNs)
}

// Event implements obs.Sink; engine events carry no timing the benchmark
// reports.
func (s *roundSink) Event(obs.EventRec) {}

// Close implements obs.Sink.
func (s *roundSink) Close() error { return nil }

// chromeEvent is one record of the Chrome trace-event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome exports every recorded span as a Chrome trace-event file
// (open it at https://ui.perfetto.dev). Spans on one lane nest by time, so
// each op shows its layer calls beneath it and the engine rounds of a
// solve beneath that solve.
func (t *tracer) writeChrome(path string, lanes map[int]string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	if _, err := bw.WriteString("[\n"); err != nil {
		return err
	}
	events := []chromeEvent{{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "mdsperf"}}}
	for tid, name := range lanes {
		events = append(events, chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid, Args: map[string]any{"name": name}})
	}
	t.mu.Lock()
	for i := range t.laneEnds {
		events = append(events, chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: laneEngine + i,
			Args: map[string]any{"name": fmt.Sprintf("engine rounds %d", i)}})
	}
	sort.Slice(events, func(i, j int) bool { return events[i].Tid < events[j].Tid })
	for _, s := range t.spans {
		args := map[string]any{"op": s.Op}
		if s.Name == "congest.round" {
			args["msgs"], args["bits"] = s.Msgs, s.Bits
		}
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Lane,
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3, Args: args,
		})
	}
	t.mu.Unlock()
	for i, ev := range events {
		if i > 0 {
			if _, err := bw.WriteString(","); err != nil {
				return err
			}
		}
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("]\n"); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// selfTime is one layer's share of a trace: the time its spans cover minus
// the time covered by spans nested beneath them on the same lane.
type selfTime struct {
	Name  string
	Count int
	Self  float64 // seconds, summed over spans of measured ops
}

// selfTimes reads a Chrome trace written by writeChrome back and sums each
// span name's self time outside set-up (args.op ≠ opSetup), rebuilding
// the nesting from timestamps alone, as a trace viewer does.
func selfTimes(r io.Reader) ([]selfTime, error) {
	var events []chromeEvent
	if err := json.NewDecoder(r).Decode(&events); err != nil {
		return nil, fmt.Errorf("reading trace: %w", err)
	}
	type node struct {
		ev       chromeEvent
		children float64
	}
	byLane := map[int][]*node{}
	for _, ev := range events {
		if ev.Ph == "X" {
			byLane[ev.Tid] = append(byLane[ev.Tid], &node{ev: ev})
		}
	}
	totals := map[string]*selfTime{}
	for _, nodes := range byLane {
		sort.SliceStable(nodes, func(i, j int) bool {
			if nodes[i].ev.Ts != nodes[j].ev.Ts {
				return nodes[i].ev.Ts < nodes[j].ev.Ts
			}
			return nodes[i].ev.Dur > nodes[j].ev.Dur
		})
		var stack []*node
		for _, n := range nodes {
			for len(stack) > 0 {
				top := stack[len(stack)-1].ev
				if n.ev.Ts < top.Ts+top.Dur {
					break
				}
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				stack[len(stack)-1].children += n.ev.Dur
			}
			stack = append(stack, n)
		}
		for _, n := range nodes {
			if op, _ := n.ev.Args["op"].(float64); op == opSetup {
				continue
			}
			st := totals[n.ev.Name]
			if st == nil {
				st = &selfTime{Name: n.ev.Name}
				totals[n.ev.Name] = st
			}
			st.Count++
			st.Self += (n.ev.Dur - n.children) / 1e6
		}
	}
	out := make([]selfTime, 0, len(totals))
	for _, st := range totals {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out, nil
}
