package main

import (
	"fmt"
	"time"

	"congestds/internal/baseline"
	"congestds/internal/cds"
	"congestds/internal/congest"
	"congestds/internal/graph"
	"congestds/internal/mds"
	"congestds/internal/obs"
	"congestds/internal/verify"
)

// samples collects per-op layer figures of traced ops; a nil samples
// drops them, which is what untraced ops pass.
type samples map[string][]float64

func (s samples) add(name string, v float64) {
	if s != nil {
		s[name] = append(s[name], v)
	}
}

func (s samples) med(name string) float64 { return median(s[name]) }

// paperOut is everything one paper-gnp op computes that must repeat
// exactly when the op runs again on the same input.
type paperOut struct {
	measured, charged int
	msgs, bits        int64
	set, cds, greedy  int
	phases, colorsMax int
	cdsCharged        int
	lb                float64
}

// paperGNP is the source paper's pipeline (arXiv:1905.10775): a gnp graph,
// Theorem 1.2's deterministic MDS approximation on the stepped engine, the
// dual-packing certificate, Section 4's transform to a connected
// dominating set, and the greedy baseline as the reference.
func paperGNP(e *env) (*outcome, error) {
	o := &outcome{batch: true, lanes: map[int]string{laneSetup: "set-up", laneOps: "ops"}}
	// Set-up: warm-up passes of the whole pipeline on a small graph of the
	// same family, so code, heap and allocator are warm when timing starts.
	setupS, err := e.setups(func(int, int) error {
		_, err := paperOp(e, e.sc.warmN, opSetup, false, nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := resetPeak(); err != nil {
		return nil, err
	}
	e.tr.startWindow()
	ls := samples{}
	var ref *paperOut
	steal := watchSteal()
	ts := e.runOps(func(i int, on bool) {
		o.attempted++
		var s samples
		if on {
			s = ls
		}
		out, err := paperOp(e, e.sc.gnpN, i, on, s)
		switch {
		case err != nil:
			o.fail("op %d: %v", i, err)
		case ref == nil:
			ref = &out
		case out != *ref:
			o.fail("op %d: result %+v differs from op 0's %+v on the same input", i, out, *ref)
		}
	})
	if ref == nil {
		ref = &paperOut{}
	}

	o.e2e.put("setup_s", "s", setupS, fmt.Sprintf("median of %d warm-up passes at n=%d", e.sc.setups, e.sc.warmN))
	putBatchTimes(o, ts)
	steal.put(o)
	if err := putPeakRSS(o); err != nil {
		return nil, err
	}
	o.e2e.put("rounds", "count", float64(ref.measured+ref.charged),
		fmt.Sprintf("%d measured + %d charged", ref.measured, ref.charged))
	o.e2e.put("approx_ratio", "ratio", ratio(float64(ref.set), ref.lb), fmt.Sprintf("|S|=%d, LB=%.2f", ref.set, ref.lb))
	o.e2e.put("cds_ratio", "ratio", ratio(float64(ref.cds), ref.lb), fmt.Sprintf("|CDS|=%d", ref.cds))

	putBatchLayers(o, ls, ref.measured, ref.msgs, ref.bits)
	o.layer.put("graph.gen_s", "s", ls.med("graph.gen_s"), "")
	o.layer.put("graph.alloc_mb", "MB", ls.med("graph.alloc_mb"), "allocated by graph.Named")
	o.layer.put("mds.solve_s", "s", ls.med("mds.solve_s"), "")
	o.layer.put("mds.host_s", "s", ls.med("mds.host_s"), "mds.solve_s - congest.round_s")
	o.layer.put("mds.rounds_charged", "count", float64(ref.charged), "")
	o.layer.put("mds.phases", "count", float64(ref.phases), "Part II phases")
	o.layer.put("mds.colors_max", "count", float64(ref.colorsMax), "most distance-2 colors in a phase")
	o.layer.put("mds.alloc_mb", "MB", ls.med("mds.alloc_mb"), "")
	o.layer.put("cds.extend_s", "s", ls.med("cds.extend_s"), "")
	o.layer.put("cds.size", "count", float64(ref.cds), "")
	o.layer.put("cds.rounds_charged", "count", float64(ref.cdsCharged), "")
	o.layer.put("verify.certify_s", "s", ls.med("verify.certify_s"), "verify.Certify")
	o.layer.put("verify.checkcds_s", "s", ls.med("verify.checkcds_s"), "")
	o.layer.put("baseline.greedy_s", "s", ls.med("baseline.greedy_s"), "")
	o.layer.put("baseline.greedy_size", "count", float64(ref.greedy), "")
	return o, nil
}

// putBatchLayers reports the engine figures and the tracing overhead of a
// batch workload's traced ops.
func putBatchLayers(o *outcome, ls samples, rounds int, msgs, bits int64) {
	roundS := ls.med("congest.round_s")
	o.layer.put("congest.round_s", "s", roundS, "engine round wall per op")
	o.layer.put("congest.ns_per_msg", "ns", roundS*1e9/float64(max(msgs, 1)), "round wall per delivered message")
	durs := ls["congest.round_us"]
	p50, b50 := percentile(durs, 50)
	p99, b99 := percentile(durs, 99)
	o.layer.put("congest.round_p50_us", "us", p50, pctNote(len(durs), b50))
	o.layer.put("congest.round_p99_us", "us", p99, pctNote(len(durs), b99))
	o.layer.put("congest.rounds", "count", float64(rounds), "measured rounds per op")
	o.layer.put("congest.msgs", "count", float64(msgs), "per op")
	o.layer.put("congest.bits", "count", float64(bits), "per op")
	if o.untracedOpS > 0 {
		o.layer.put("obs.overhead_frac", "ratio", ls.med("op_s")/o.untracedOpS-1, "traced / untraced op_s - 1")
	}
}

// observe attaches a fresh obs.Recorder feeding a roundSink whose round
// spans nest under parent, or returns nil observer and sink when off.
func observe(e *env, on bool, op, parent int) (congest.Observer, *roundSink) {
	if !on {
		return nil, nil
	}
	sink := &roundSink{t: e.tr, op: op, parent: parent, lane: laneOps}
	return obs.NewRecorder(sink), sink
}

// addRounds checks a traced run's round records against the engine's own
// metrics and files them as layer samples.
func addRounds(ls samples, sink *roundSink, solveS float64, m congest.Metrics, host string) error {
	if sink == nil {
		return nil
	}
	if sink.rounds != m.Rounds || sink.msgs != m.Messages || sink.bits != m.Bits {
		return fmt.Errorf("observer saw %d rounds / %d msgs / %d bits, engine reported %d / %d / %d",
			sink.rounds, sink.msgs, sink.bits, m.Rounds, m.Messages, m.Bits)
	}
	roundS := float64(sink.wallNs) / 1e9
	ls.add("congest.round_s", roundS)
	ls.add(host, solveS-roundS)
	for _, d := range sink.durs {
		ls.add("congest.round_us", float64(d)/1e3)
	}
	return nil
}

// paperOp runs one paper-gnp op on a gnp graph of n nodes and checks
// every output. Op opSetup is a set-up pass.
func paperOp(e *env, n, op int, on bool, ls samples) (paperOut, error) {
	t := e.tr
	lane := laneOps
	if op < 0 {
		lane = laneSetup
	}
	start := time.Now()
	root := t.begin(on, "op", op, -1, lane)
	defer func() {
		t.end(root)
		ls.add("op_s", time.Since(start).Seconds())
	}()
	var out paperOut
	var g *graph.Graph
	var err error
	ls.add("graph.alloc_mb", allocMB(on, func() {
		ls.add("graph.gen_s", t.call(on, "graph.gen", op, root, lane, func() {
			g, err = graph.Named("gnp", n, e.seed)
		}))
	}))
	if err != nil {
		return out, fmt.Errorf("graph.Named: %w", err)
	}

	var res *mds.Result
	var solveS float64
	var sink *roundSink
	ls.add("mds.alloc_mb", allocMB(on, func() {
		id := t.begin(on, "mds.solve", op, root, lane)
		p := mds.Params{Eps: 0.5, Sim: congest.EngineStepped}
		p.Observer, sink = observe(e, on, op, id)
		s := time.Now()
		res, err = mds.Solve(g, p)
		solveS = time.Since(s).Seconds()
		t.end(id)
	}))
	if err != nil {
		return out, fmt.Errorf("mds.Solve: %w", err)
	}
	ls.add("mds.solve_s", solveS)
	m := res.Ledger.Metrics()
	if err := addRounds(ls, sink, solveS, m, "mds.host_s"); err != nil {
		return out, err
	}

	var dominating bool
	t.call(on, "verify.dominating", op, root, lane, func() { dominating = verify.IsDominatingSet(g, res.Set) })
	if !dominating {
		return out, fmt.Errorf("mds.Solve returned a set that does not dominate")
	}
	var cert verify.RatioCertificate
	ls.add("verify.certify_s", t.call(on, "verify.certify", op, root, lane, func() { cert = verify.Certify(g, res.Set) }))
	if cert.Ratio > res.Bound+1e-9 {
		return out, fmt.Errorf("certificate fails: ratio %.4f above the Thm 1.2 bound %.4f", cert.Ratio, res.Bound)
	}

	var cres *cds.Result
	ls.add("cds.extend_s", t.call(on, "cds.extend", op, root, lane, func() {
		cres, err = cds.Extend(g, res.Set, cds.Params{}, nil)
	}))
	if err != nil {
		return out, fmt.Errorf("cds.Extend: %w", err)
	}
	ls.add("verify.checkcds_s", t.call(on, "verify.checkcds", op, root, lane, func() { err = verify.CheckCDS(g, cres.CDS) }))
	if err != nil {
		return out, fmt.Errorf("CheckCDS: %w", err)
	}
	if len(res.Set) > 1 && len(cres.CDS) > 3*len(res.Set)-2 {
		return out, fmt.Errorf("|CDS|=%d above the Section 4 bound 3|S|-2=%d", len(cres.CDS), 3*len(res.Set)-2)
	}

	var greedy []int
	ls.add("baseline.greedy_s", t.call(on, "baseline.greedy", op, root, lane, func() { greedy = baseline.Greedy(g) }))
	t.call(on, "verify.dominating", op, root, lane, func() { dominating = verify.IsDominatingSet(g, greedy) })
	if !dominating {
		return out, fmt.Errorf("baseline.Greedy returned a set that does not dominate")
	}

	out = paperOut{
		measured: m.Rounds, charged: m.ChargedRounds, msgs: m.Messages, bits: m.Bits,
		set: len(res.Set), cds: len(cres.CDS), greedy: len(greedy),
		phases: len(res.Phases), cdsCharged: cres.Ledger.Metrics().ChargedRounds, lb: cert.LowerBound,
	}
	for _, ph := range res.Phases {
		out.colorsMax = max(out.colorsMax, ph.NumColors)
	}
	return out, nil
}
