package main

import (
	"fmt"
	"io"
	"path/filepath"
	"time"

	"congestds/internal/arbmds"
	"congestds/internal/congest"
	"congestds/internal/graph"
	"congestds/internal/verify"
)

// arbOut is everything one arb-mmap op computes that must repeat exactly.
type arbOut struct {
	rounds, charged int
	msgs, bits      int64
	set             int
	lb              float64
}

// arbMmap serves the bounded-arboricity family (arXiv:2206.05174) from a
// memory-mapped .csrg: few rounds over a graph far larger than the LLC.
func arbMmap(e *env) (*outcome, error) {
	o := &outcome{batch: true, lanes: map[int]string{laneSetup: "set-up", laneOps: "ops"}}
	t := e.tr
	path := filepath.Join(e.dir, "uforest.csrg")
	ls := samples{}
	setupS, err := e.setups(func(_, root int) error {
		on := t.enabled
		var g *graph.Graph
		var err error
		ls.add("graph.gen_s", t.call(on, "graph.gen", opSetup, root, laneSetup, func() {
			g, err = graph.Named("uforest", e.sc.arbN, e.seed)
		}))
		if err != nil {
			return err
		}
		t.call(on, "graph.write", opSetup, root, laneSetup, func() { err = g.WriteCSRGFile(path) })
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := resetPeak(); err != nil {
		return nil, err
	}
	t.startWindow()
	var ref *arbOut
	steal := watchSteal()
	ts := e.runOps(func(i int, on bool) {
		o.attempted++
		var s samples
		if on {
			s = ls
		}
		out, err := arbOp(e, path, i, on, s)
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
		ref = &arbOut{}
	}

	o.e2e.put("setup_s", "s", setupS, fmt.Sprintf("median of %d gen+write passes, n=%d", e.sc.setups, e.sc.arbN))
	putBatchTimes(o, ts)
	steal.put(o)
	if err := putPeakRSS(o); err != nil {
		return nil, err
	}
	o.e2e.put("rounds", "count", float64(ref.rounds+ref.charged),
		fmt.Sprintf("%d measured + %d charged", ref.rounds, ref.charged))
	o.e2e.put("approx_ratio", "ratio", ratio(float64(ref.set), ref.lb), fmt.Sprintf("|S|=%d, LB=%.2f", ref.set, ref.lb))

	putBatchLayers(o, ls, ref.rounds, ref.msgs, ref.bits)
	o.layer.put("graph.gen_s", "s", ls.med("graph.gen_s"), "set-up generation")
	o.layer.put("graph.load_s", "s", ls.med("graph.load_s"), "mmap + validation")
	o.layer.put("graph.alloc_mb", "MB", ls.med("graph.alloc_mb"), "allocated by graph.Load")
	o.layer.put("verify.certify_s", "s", ls.med("verify.certify_s"), "verify.CertifyArb")
	o.layer.put("arbmds.solve_s", "s", ls.med("arbmds.solve_s"), "")
	o.layer.put("arbmds.host_s", "s", ls.med("arbmds.host_s"), "arbmds.solve_s - congest.round_s")
	return o, nil
}

// arbOp runs one arb-mmap op on the .csrg at path and checks its output.
func arbOp(e *env, path string, op int, on bool, ls samples) (arbOut, error) {
	t := e.tr
	start := time.Now()
	root := t.begin(on, "op", op, -1, laneOps)
	defer func() {
		t.end(root)
		ls.add("op_s", time.Since(start).Seconds())
	}()
	var out arbOut
	var g *graph.Graph
	var closer io.Closer
	var err error
	ls.add("graph.alloc_mb", allocMB(on, func() {
		ls.add("graph.load_s", t.call(on, "graph.load", op, root, laneOps, func() {
			g, closer, err = graph.Load(path)
		}))
	}))
	if err != nil {
		return out, fmt.Errorf("graph.Load: %w", err)
	}
	defer closer.Close()

	const eps = 0.5
	var res *arbmds.Result
	var sink *roundSink
	id := t.begin(on, "arbmds.solve", op, root, laneOps)
	p := arbmds.Params{Eps: eps, Sim: congest.EngineStepped}
	p.Observer, sink = observe(e, on, op, id)
	s := time.Now()
	res, err = arbmds.Solve(g, p)
	solveS := time.Since(s).Seconds()
	t.end(id)
	if err != nil {
		return out, fmt.Errorf("arbmds.Solve: %w", err)
	}
	ls.add("arbmds.solve_s", solveS)
	if err := addRounds(ls, sink, solveS, res.Metrics, "arbmds.host_s"); err != nil {
		return out, err
	}
	if want := 4 * len(res.Thresholds); res.Metrics.Rounds != want {
		return out, fmt.Errorf("arbmds ran %d rounds, its schedule has %d", res.Metrics.Rounds, want)
	}

	var cert verify.ArbCertificate
	ls.add("verify.certify_s", t.call(on, "verify.certify", op, root, laneOps, func() {
		cert = verify.CertifyArb(g, res.Set, eps)
	}))
	if !cert.OK {
		return out, fmt.Errorf("CertifyArb fails: %v", cert)
	}
	t.call(on, "graph.close", op, root, laneOps, func() { err = closer.Close() })
	if err != nil {
		return out, fmt.Errorf("closing the mapped graph: %w", err)
	}
	m := res.Metrics
	return arbOut{rounds: m.Rounds, charged: m.ChargedRounds, msgs: m.Messages, bits: m.Bits,
		set: len(res.Set), lb: cert.LowerBound}, nil
}
