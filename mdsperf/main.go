// Command mdsperf is the repository's benchmark. One invocation runs one
// seeded workload through the public API of the graph, congest, mds, cds,
// verify, baseline, arbmds and serve packages, checks every output, and
// prints the metrics BENCHMARK.json declares as the last line of standard
// output:
//
//	bash mdsperf/run.sh --workload paper-gnp --seed 1 --seconds 30 --trace 0
//
// Workloads (see README.md for why each was chosen):
//
//	paper-gnp  the source paper's pipeline: gnp n=16000 → mds.Solve (Thm 1.2)
//	           → certify → cds.Extend (Section 4) → CheckCDS → greedy reference
//	arb-mmap   a 10⁶-node uforest .csrg: graph.Load (mmap) → arbmds.Solve →
//	           CertifyArb → close
//	serve-mix  mdsd's serving layer over loopback HTTP, closed loop of two
//	           clients mixing cache hits with fresh (coalescing) solves
//
// With --trace 0 the run is untraced and reports the end-to-end metrics;
// with --trace 1 it records a span around every layer call, attaches an
// obs.Recorder through the public observer hooks, reports the per-layer
// metrics, writes a Chrome trace-event file and prints each layer's self
// time read back from that file.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// scale holds the input sizes of the workloads. fullScale is what the
// benchmark measures; the self-check test runs the same code at a small
// scale with a fixed op count.
type scale struct {
	gnpN   int // paper-gnp graph size
	warmN  int // paper-gnp set-up warm-up graph size
	arbN   int // arb-mmap graph size
	serveN int // serve-mix size of each served graph
	setups int // set-up repetitions per run (setup_s is their median)
	// fixedOps and fixedRequests, when positive, run exactly this many
	// batch ops or serve-mix requests, ignoring the time budget.
	fixedOps, fixedRequests int
}

var fullScale = scale{gnpN: 16000, warmN: 2000, arbN: 1_000_000, serveN: 20000, setups: 3}

// env is what a workload receives: its seed, its time budget and sizes,
// the tracer, and a scratch directory for generated files.
type env struct {
	seed    uint64
	seconds float64
	sc      scale
	tr      *tracer
	dir     string
}

// outcome is what a workload returns.
type outcome struct {
	attempted, failed int
	failures          []string // the first few failure messages
	e2e, layer        metricSet
	lanes             map[int]string
	batch             bool    // ops are sequential pipelines (self-time check applies)
	untracedOpS       float64 // median untraced op wall time (traced runs)
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 5 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// metric is one reported value. Note carries the sample count of a
// percentile or any other qualifier; it is printed, not emitted as JSON.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Note  string  `json:"note,omitempty"`
}

type metricSet struct {
	order []string
	m     map[string]metric
}

func (s *metricSet) put(name, unit string, v float64, note string) {
	if s.m == nil {
		s.m = map[string]metric{}
	}
	if _, ok := s.m[name]; !ok {
		s.order = append(s.order, name)
	}
	s.m[name] = metric{Value: v, Unit: unit, Note: note}
}

// workloads maps --workload names to their implementations.
var workloads = map[string]func(*env) (*outcome, error){
	"paper-gnp": paperGNP,
	"arb-mmap":  arbMmap,
	"serve-mix": serveMix,
}

// manifest is the part of BENCHMARK.json the program checks its output
// against: every declared metric must be produced, with the declared unit.
type manifest struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func main() {
	code, err := run(os.Args[1:], fullScale, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mdsperf:", err)
	}
	os.Exit(code)
}

func run(args []string, sc scale, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("mdsperf", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: paper-gnp | arb-mmap | serve-mix")
	seed := fs.Uint64("seed", 1, "workload seed (the same seed gives the same inputs)")
	seconds := fs.Float64("seconds", 30, "measured time per run, in seconds")
	trace := fs.Int("trace", 0, "0: untraced, end-to-end metrics; 1: traced, per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for generated inputs, results and traces")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	w, ok := workloads[*workload]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		return 2, fmt.Errorf("usage: --workload paper-gnp|arb-mmap|serve-mix --seed N --seconds S --trace 0|1")
	}
	man, err := readManifest("BENCHMARK.json")
	if err != nil {
		return 1, err
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return 1, err
	}
	dir, err := os.MkdirTemp(*out, "run-")
	if err != nil {
		return 1, err
	}
	defer os.RemoveAll(dir)

	e := &env{seed: *seed, seconds: *seconds, sc: sc, tr: newTracer(*trace == 1), dir: dir}
	o, err := w(e)
	if err != nil {
		return 1, fmt.Errorf("%s: %w", *workload, err)
	}
	o.e2e.put("fail_frac", "ratio", float64(o.failed)/float64(max(o.attempted, 1)),
		fmt.Sprintf("%d of %d failed", o.failed, o.attempted))

	tag := fmt.Sprintf("%s-seed%d-trace%d", *workload, *seed, *trace)
	hdr := machine()
	fmt.Fprintf(stdout, "# mdsperf %s  %s\n", tag, hdr)
	for _, f := range o.failures {
		fmt.Fprintf(stdout, "# FAILED: %s\n", f)
	}
	printSet(stdout, "end-to-end", &o.e2e)
	if *trace == 1 {
		printSet(stdout, "per-layer", &o.layer)
		path := filepath.Join(*out, "trace", tag+".json")
		if err := writeTrace(stdout, e.tr, o, path); err != nil {
			return 1, err
		}
	}
	if err := saveResults(filepath.Join(*out, "results", tag+".json"), hdr, o); err != nil {
		return 1, err
	}

	declared, src := man.EndToEnd, &o.e2e
	if *trace == 1 {
		declared, src = man.PerLayer, &o.layer
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	for _, d := range declared {
		m, ok := src.m[d.Name]
		if !ok && *trace == 1 {
			// A layer the workload does not call did no work in it.
			m, ok = metric{Unit: d.Unit}, true
		}
		if !ok {
			return 1, fmt.Errorf("%s does not produce declared metric %q", *workload, d.Name)
		}
		if m.Unit != d.Unit {
			return 1, fmt.Errorf("metric %q: produced unit %q, declared %q", d.Name, m.Unit, d.Unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return 1, fmt.Errorf("metric %q is not a number", d.Name)
		}
		res.Metrics[d.Name] = metric{Value: m.Value, Unit: m.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Fprintln(stdout, string(line))
	return 0, nil
}

func readManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(m.EndToEnd) == 0 || len(m.PerLayer) == 0 {
		return nil, fmt.Errorf("%s declares no metrics", path)
	}
	return &m, nil
}

func printSet(w io.Writer, title string, s *metricSet) {
	fmt.Fprintf(w, "# %s metrics:\n", title)
	for _, name := range s.order {
		m := s.m[name]
		note := ""
		if m.Note != "" {
			note = "  (" + m.Note + ")"
		}
		fmt.Fprintf(w, "#   %-26s %14.6g %-6s%s\n", name, m.Value, m.Unit, note)
	}
}

// writeTrace exports the traced run and prints each layer's self time as
// read back from the exported file.
func writeTrace(w io.Writer, tr *tracer, o *outcome, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := tr.writeChrome(path, o.lanes); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	selfs, err := selfTimes(f)
	if err != nil {
		return err
	}
	ops := 0
	for _, s := range selfs {
		if s.Name == "op" {
			ops = s.Count
		}
	}
	fmt.Fprintf(w, "# trace: %s\n# self time per layer (seconds summed over traced ops/requests):\n", path)
	var layers float64
	for _, s := range selfs {
		fmt.Fprintf(w, "#   %-22s %5d spans %12.6f s\n", s.Name, s.Count, s.Self)
		if s.Name != "op" {
			layers += s.Self
		}
	}
	if o.batch && ops > 0 && o.untracedOpS > 0 {
		per := layers / float64(ops)
		fmt.Fprintf(w, "# layer self times sum to %.4f s per traced op = %.1f%% of the untraced op_s %.4f s\n",
			per, 100*per/o.untracedOpS, o.untracedOpS)
	}
	return nil
}

// saveResults writes every metric the run produced, with the machine
// header and failures, next to the trace.
func saveResults(path, hdr string, o *outcome) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(map[string]any{
		"machine": hdr, "attempted": o.attempted, "failed": o.failed, "failures": o.failures,
		"end_to_end": o.e2e.m, "per_layer": o.layer.m,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// machine describes the host a result came from.
func machine() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d GOARCH=%s go=%s cpu=%q",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.GOARCH, runtime.Version(), cpuModel())
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// resetPeak returns set-up garbage to the OS and restarts the kernel's
// peak-RSS counter, so peakRSSMiB covers the measured window alone.
func resetPeak() error {
	runtime.GC()
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads the process's peak resident set size (VmHWM).
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// setups runs the workload's set-up e.sc.setups times and returns the
// median wall time. fn receives the repetition index and the set-up span;
// the measurement keeps the state of the last repetition.
func (e *env) setups(fn func(k, span int) error) (float64, error) {
	var ds []float64
	for k := 0; k < e.sc.setups; k++ {
		id := e.tr.begin(e.tr.enabled, "setup", opSetup, -1, laneSetup)
		start := time.Now()
		err := fn(k, id)
		ds = append(ds, time.Since(start).Seconds())
		e.tr.end(id)
		if err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
	}
	return median(ds), nil
}

// opTimes are the wall times of a batch run's ops and the CPU time of its
// untraced ones.
type opTimes struct {
	walls, untraced []float64 // seconds
	untracedCPU     []float64 // process CPU seconds of each untraced op
	elapsed         float64
}

// runOps runs a batch workload's ops until the time budget is spent (or,
// at a fixed scale, exactly fixedOps of them). It stops before an op that
// would end more than half an op past the budget. In a traced run every
// even op is traced and every odd op is not, so tracing overhead is
// measured in the same run; a traced run makes at least two ops.
func (e *env) runOps(op func(i int, traced bool)) opTimes {
	var ts opTimes
	start := time.Now()
	for i := 0; ; i++ {
		if e.sc.fixedOps > 0 {
			if i == e.sc.fixedOps {
				break
			}
		} else if i > 0 && !(e.tr.enabled && i < 2) {
			last := ts.walls[len(ts.walls)-1]
			if time.Since(start).Seconds()+last/2 >= e.seconds {
				break
			}
		}
		on := e.tr.enabled && i%2 == 0
		c0 := cpuSeconds()
		t0 := time.Now()
		op(i, on)
		d := time.Since(t0).Seconds()
		c := cpuSeconds() - c0
		ts.walls = append(ts.walls, d)
		if !on {
			ts.untraced = append(ts.untraced, d)
			ts.untracedCPU = append(ts.untracedCPU, c)
		}
	}
	ts.elapsed = time.Since(start).Seconds()
	return ts
}

// cpuSeconds is the user and system CPU time the process has used so far.
// The kernel does not charge it the time a hypervisor steals from its
// vCPUs, though a loaded host still slows the work it does count.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// hostTicks reads the machine-wide CPU time counters from /proc/stat: the
// total and the part stolen by the hypervisor, in clock ticks.
func hostTicks() (total, steal float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// stealWatch measures the share of the host's CPU time the hypervisor
// stole over a window, which wall-clock metrics rise with.
type stealWatch struct{ total, steal float64 }

func watchSteal() stealWatch {
	t, s := hostTicks()
	return stealWatch{t, s}
}

// put reports the steal share since w began. It is printed, not gated: on
// a quiet host it is 0.
func (w stealWatch) put(o *outcome) {
	t, s := hostTicks()
	o.e2e.put("host_steal_frac", "ratio", ratio(s-w.steal, t-w.total), "CPU time stolen from this host's vCPUs during the window")
}

// median is the middle value (the mean of the two middle values for an
// even count), as Python's statistics.median computes it.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-th percentile of xs and how many
// samples lie beyond it.
func percentile(xs []float64, q float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q / 100 * float64(len(s))))
	rank = min(max(rank, 1), len(s))
	return s[rank-1], len(s) - rank
}

// putBatchTimes reports a batch workload's op times.
func putBatchTimes(o *outcome, ts opTimes) {
	o.untracedOpS = median(ts.untraced)
	o.e2e.put("op_s", "s", o.untracedOpS, opNote(ts.untraced))
	o.e2e.put("cpu_op_s", "s", median(ts.untracedCPU), fmt.Sprintf("median process CPU time of %d untraced ops", len(ts.untracedCPU)))
	o.e2e.put("throughput_rps", "1/s", float64(len(ts.walls))/ts.elapsed, fmt.Sprintf("%d ops in %.1f s", len(ts.walls), ts.elapsed))
}

// opNote describes the op times behind op_s.
func opNote(walls []float64) string {
	parts := make([]string, len(walls))
	for i, w := range walls {
		parts[i] = strconv.FormatFloat(w, 'f', 2, 64)
	}
	return fmt.Sprintf("median of %d untraced ops: %s", len(walls), strings.Join(parts, " "))
}

// pctNote formats a percentile's sample counts.
func pctNote(n, beyond int) string {
	return fmt.Sprintf("n=%d, %d beyond", n, beyond)
}

// ratio is a/b, or 0 when b is 0 (a run whose ops all failed).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// putPeakRSS reports peak_rss_mib for the measured window.
func putPeakRSS(o *outcome) error {
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	o.e2e.put("peak_rss_mib", "MiB", rss, "VmHWM since set-up ended")
	return nil
}

// allocMB returns the bytes allocated by fn, in MB, when on; fn runs
// either way.
func allocMB(on bool, fn func()) float64 {
	if !on {
		fn()
		return 0
	}
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.TotalAlloc-a.TotalAlloc) / 1e6
}
