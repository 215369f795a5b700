// mdsrun runs one dominating set algorithm on one graph and prints the
// result with cost metrics and an approximation certificate.
//
//	go run ./cmd/mdsrun -family gnp -n 200 -algo thm1.2 -eps 0.5
//	go run ./cmd/mdsrun -in graph.txt -algo cds
//	go run ./cmd/mdsrun -in graph.csrg -algo arbmds   (zero-copy mmap)
//	go run ./cmd/mdsrun -family uforest -n 100000 -algo arbmds
//	go run ./cmd/mdsrun -family ba -n 100000 -algo mcds
//	go run ./cmd/mdsrun -family disk -n 150 -algo greedy -v
//
// Every -algo value resolves to a family.Family and runs through one
// solve → certify → report path: the distributed algorithms come from the
// algorithm-family registry (internal/family: the paper's thm1.1,
// thm1.2 alias paper, cor1.3 and cds, plus arbmds, mcds, ...), the same
// names cmd/mdsd serves; the host-level baselines greedy and exact are
// local, unregistered families. Unknown names get an error listing every
// valid algorithm.
//
// Exit codes are scripting API, pinned by TestExitCodes:
//
//	0  success
//	1  run failure (graph unavailable, simulation aborted, ...); when the
//	   failure maps to an engine sentinel, a final "sentinel <class>" line
//	   on stderr names it (deadline, bandwidth, bad-ckpt, ...)
//	2  usage error (bad flags, unknown algorithm/engine, invalid combination,
//	   or a solve rejecting its parameters with the "config" sentinel class)
//	3  certification violation: the run completed but its output failed
//	   the certificate — a bug, never a usage or environment problem
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"congestds/internal/baseline"
	"congestds/internal/congest"
	"congestds/internal/family"
	"congestds/internal/graph"
	"congestds/internal/obs"
)

// Exit codes (see the package comment).
const (
	exitOK      = 0
	exitRun     = 1
	exitUsage   = 2
	exitCertify = 3
)

// baselines are the host-level reference algorithms. They run through the
// same tail as the registered families but stay unregistered, so mdsd
// never serves them: baseline.Exact is exponential and never checks a
// context, so one request could pin a core past any deadline.
var baselines = map[string]family.Family{
	"greedy": {
		Name: "greedy",
		Solve: func(g *graph.Graph, _ family.Params) (*family.Result, error) {
			set := baseline.Greedy(g) // H(Δ+1) ≤ 1+ln(Δ+1) [Joh74]
			return &family.Result{Set: set, Cert: family.CertifyDS(g, set, 1+math.Log(float64(g.MaxDegree()+1)), false)}, nil
		},
	},
	"exact": {
		Name: "exact",
		Solve: func(g *graph.Graph, _ family.Params) (*family.Result, error) {
			if g.N() > 64 {
				return nil, fmt.Errorf("%w: exact solver is for n ≤ 64 (got %d)", congest.ErrConfig, g.N())
			}
			set := baseline.Exact(g)
			return &family.Result{Set: set, Cert: family.CertifyDS(g, set, 1, false)}, nil
		},
	},
}

// algoNames returns every valid -algo value, sorted: the registered
// algorithm families plus the baselines.
func algoNames() []string {
	names := family.Names()
	for name := range baselines {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// unknownAlgoErr is the error for an unrecognized -algo value. Like
// graph.Named's unknown-family error, it lists the valid names so callers
// never have to cross-reference the source.
func unknownAlgoErr(name string) error {
	return fmt.Errorf("unknown algorithm %q (algorithms: %s)",
		name, strings.Join(algoNames(), ", "))
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// usage reports a misuse and returns the usage exit code.
func usage(stderr io.Writer, format string, args ...any) int {
	fmt.Fprintf(stderr, "mdsrun: "+format+"\n", args...)
	return exitUsage
}

// fail reports a run failure, naming the engine sentinel class when the
// error carries one, and returns the run-failure exit code.
func fail(stderr io.Writer, err error) int {
	fmt.Fprintf(stderr, "mdsrun: %v\n", err)
	if class := congest.SentinelClass(err); class != "" {
		fmt.Fprintf(stderr, "sentinel %s\n", class)
	}
	return exitRun
}

// violation reports an output that failed its certificate.
func violation(stderr io.Writer, format string, args ...any) int {
	fmt.Fprintf(stderr, "mdsrun: certification violation: "+format+"\n", args...)
	return exitCertify
}

// run is main behind a testable seam: parse, solve, certify, report.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mdsrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	familyFlag := fs.String("family", "gnp", "graph family (see graphgen -list)")
	n := fs.Int("n", 100, "graph size")
	seed := fs.Uint64("seed", 1, "generator seed")
	in := fs.String("in", "",
		"read graph from file instead of generating (.csrg files are memory-mapped zero-copy)")
	algo := fs.String("algo", "thm1.2",
		"algorithm: "+strings.Join(algoNames(), " | ")+" (paper = thm1.2)")
	eps := fs.Float64("eps", 0.5, "approximation parameter ε")
	sim := fs.String("sim", "stepped", "congest execution engine: goroutine | stepped")
	diam := fs.Int("diam", 0,
		"known diameter upper bound for orientation-phase algorithms (mcds); 0 = 2·ecc+2 from one host-side BFS")
	deadline := fs.Duration("deadline", 0,
		"wall-clock budget for the whole solve; overruns exit 1 with \"sentinel deadline\"")
	ckpt := fs.String("ckpt", "",
		"checkpoint file for kill-resumable runs (arbmds with -sim stepped only); a matching checkpoint in the file resumes the run")
	ckptEvery := fs.Int("ckpt-every", 1, "checkpoint cadence in rounds (with -ckpt)")
	tracePath := fs.String("trace", "",
		"stream per-round telemetry to this file as JSONL (replayable: see internal/obs.Replay)")
	chromePath := fs.String("trace-chrome", "",
		"write a Chrome trace-event file of the run (open at chrome://tracing or ui.perfetto.dev)")
	profileFlag := fs.Bool("profile", false,
		"print a run profile after the solve: round-time percentiles, slowest rounds, message-size histogram, engine events")
	pprofCPU := fs.String("pprof-cpu", "", "write a CPU profile of the solve to this file (go tool pprof)")
	pprofHeap := fs.String("pprof-heap", "", "write a post-solve heap profile to this file (go tool pprof)")
	verbose := fs.Bool("v", false, "print the set members")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if fs.NArg() > 0 {
		return usage(stderr, "unexpected arguments: %v", fs.Args())
	}

	simEngine, err := congest.ParseEngine(*sim)
	if err != nil {
		return usage(stderr, "%v", err)
	}
	fam, ok := baselines[*algo]
	if !ok {
		if fam, err = family.Get(*algo); err != nil {
			return usage(stderr, "%v", unknownAlgoErr(*algo))
		}
	}
	if *ckpt != "" && (*algo != "arbmds" || simEngine != congest.EngineStepped) {
		return usage(stderr, "-ckpt requires -algo arbmds -sim stepped (got -algo %s -sim %s)", *algo, *sim)
	}
	if *ckptEvery < 1 {
		return usage(stderr, "-ckpt-every must be >= 1 (got %d)", *ckptEvery)
	}

	// One budget for the whole solve: -deadline becomes a context shared by
	// every simulated phase, so multi-part pipelines cannot stack budgets.
	var ctx context.Context
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(context.Background(), *deadline)
		defer cancel()
	}

	var g *graph.Graph
	if *in != "" {
		var closer io.Closer
		g, closer, err = graph.Load(*in)
		if err == nil {
			// The mapping must outlive every use of g; the process exit
			// releases it, the deferred Close just keeps the path tidy.
			defer closer.Close()
		}
	} else {
		g, err = graph.Named(*familyFlag, *n, *seed)
	}
	if err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stdout, "graph: %v\n", g)

	params := family.Params{
		Eps: *eps, Sim: simEngine, DiamBound: *diam,
		Ctx: ctx, CkptPath: *ckpt, CkptEvery: *ckptEvery,
	}

	// Telemetry: one Recorder fans the run out to every requested sink.
	// Attaching it never changes the solve (the conformance suite pins
	// that), so the flags compose freely with every algorithm and engine.
	var rec *obs.Recorder
	var agg *obs.Aggregator
	if *tracePath != "" || *chromePath != "" || *profileFlag {
		var sinks []obs.Sink
		if *tracePath != "" {
			f, err := os.Create(*tracePath)
			if err != nil {
				return fail(stderr, err)
			}
			sinks = append(sinks, obs.NewJSONL(f))
		}
		if *chromePath != "" {
			f, err := os.Create(*chromePath)
			if err != nil {
				return fail(stderr, err)
			}
			sinks = append(sinks, obs.NewChrome(f))
		}
		if *profileFlag {
			agg = obs.NewAggregator()
			sinks = append(sinks, agg)
		}
		rec = obs.NewRecorder(sinks...)
		params.Observer = rec
	}
	// closeTrace flushes the sinks exactly once; the defer covers failure
	// exits so a partial trace of an aborted run still lands on disk.
	closeTrace := func() {
		if rec != nil {
			if err := rec.Close(); err != nil {
				fmt.Fprintf(stderr, "mdsrun: trace: %v\n", err)
			}
			rec = nil
		}
	}
	defer closeTrace()

	if *pprofHeap != "" {
		f, err := os.Create(*pprofHeap)
		if err != nil {
			return fail(stderr, err)
		}
		defer func() {
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "mdsrun: pprof-heap: %v\n", err)
			}
			f.Close()
		}()
	}

	if params.DiamBound == 0 && fam.NeedsDiam {
		// One host-side BFS; only paid for families that run an
		// orientation phase.
		params.DiamBound = 2*g.Eccentricity(0) + 2
	}

	// The CPU profile brackets the solve alone: no exit path lies between
	// its start and stop, so it needs no deferred backstop.
	stopCPU := func() {}
	if *pprofCPU != "" {
		f, err := os.Create(*pprofCPU)
		if err != nil {
			return fail(stderr, err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(stderr, err)
		}
		stopCPU = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	res, err := fam.Solve(g, params)
	stopCPU()
	if err != nil {
		if congest.SentinelClass(err) == "config" {
			return usage(stderr, "%v", err)
		}
		return fail(stderr, err)
	}
	// The family certificate is the only verification pass — at 10⁶ nodes
	// a second one would double the post-solve wall-clock.
	if !res.Cert.Passed() {
		return violation(stderr, "%s output failed its certificate (bug): %v", *algo, res.Cert)
	}
	fmt.Fprintf(stdout, "%s certificate: %v\n", *algo, res.Cert)
	for _, note := range res.Notes {
		fmt.Fprintln(stdout, note)
	}
	fmt.Fprintf(stdout, "set size: %d\n", len(res.Set))
	if res.Rounds > 0 {
		fmt.Fprintf(stdout, "rounds: %d\n", res.Rounds)
	}
	if *verbose {
		fmt.Fprintf(stdout, "members: %v\n", res.Set)
	}

	// The profile (and the wall-annotated ledger, when the pipeline kept
	// one) closes the successful run.
	if rec != nil {
		if res.Ledger != nil {
			obs.FillLedgerWall(res.Ledger, rec)
		}
		closeTrace()
		if agg != nil {
			fmt.Fprint(stdout, agg.Profile())
			if res.Ledger != nil {
				fmt.Fprintf(stdout, "ledger: %v\n", res.Ledger)
			}
		}
	}
	return exitOK
}
