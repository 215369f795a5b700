package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// smallScale runs every workload on the benchmark's own code path at a size
// that takes seconds, with a fixed number of ops, so that its exact
// counters are reproducible.
var smallScale = scale{gnpN: 1000, warmN: 200, arbN: 20000, serveN: 1000, setups: 1, fixedOps: 2, fixedRequests: 200}

// TestExactCounters pins the deterministic counters of each workload at
// the small scale and seed 1. A change to the program that moves one of
// them shows here as a count, not as timing noise; update the pin only
// with a change that means to move it.
func TestExactCounters(t *testing.T) {
	pins := map[string]map[string]float64{
		"paper-gnp": {
			"rounds":               3594,
			"approx_ratio":         1.5376344086021505,
			"congest.rounds":       1082,
			"congest.msgs":         4427544,
			"congest.bits":         35772712,
			"mds.rounds_charged":   2512,
			"mds.phases":           6,
			"cds.size":             495,
			"cds.rounds_charged":   136,
			"baseline.greedy_size": 264,
		},
		"arb-mmap": {
			"rounds":         36,
			"approx_ratio":   1.9046991655687309,
			"congest.rounds": 36,
			"congest.msgs":   195019,
			"congest.bits":   645624,
		},
		"serve-mix": {
			"rounds":       51,
			"approx_ratio": 2.4563894251394243,
			"serve.runs":   17,
		},
	}
	for name, want := range pins {
		t.Run(name, func(t *testing.T) {
			e := &env{seed: 1, seconds: 1, sc: smallScale, tr: newTracer(true), dir: t.TempDir()}
			o, err := workloads[name](e)
			if err != nil {
				t.Fatal(err)
			}
			if o.failed != 0 || o.attempted == 0 {
				t.Fatalf("%d of %d ops failed: %v", o.failed, o.attempted, o.failures)
			}
			for metric, w := range want {
				got, ok := o.e2e.m[metric]
				if !ok {
					got, ok = o.layer.m[metric]
				}
				if !ok {
					t.Errorf("%s: not reported", metric)
				} else if got.Value != w {
					t.Errorf("%s = %v, pinned %v", metric, got.Value, w)
				}
			}
		})
	}
}

// TestServeMixExactKeys checks that serve-mix's exact metrics do not
// depend on how far the window gets: a run of 3 requests, which reaches
// none of the fresh keys they average over, reports what a run of 200
// does.
func TestServeMixExactKeys(t *testing.T) {
	got := map[int]map[string]float64{}
	for _, n := range []int{3, 200} {
		sc := smallScale
		sc.fixedRequests = n
		e := &env{seed: 3, seconds: 1, sc: sc, tr: newTracer(false), dir: t.TempDir()}
		o, err := serveMix(e)
		if err != nil {
			t.Fatal(err)
		}
		if o.failed != 0 {
			t.Fatalf("%d requests: %d failed: %v", n, o.failed, o.failures)
		}
		got[n] = map[string]float64{}
		for _, m := range []string{"rounds", "approx_ratio", "cds_ratio"} {
			got[n][m] = o.e2e.m[m].Value
		}
	}
	for m, v := range got[200] {
		if got[3][m] != v {
			t.Errorf("%s: %v after 3 requests, %v after 200", m, got[3][m], v)
		}
	}
}

// TestResultLine runs the command end to end at the small scale and checks
// the contract of its last line: exactly the metrics BENCHMARK.json
// declares for the mode, with their units, and a correct run.
func TestResultLine(t *testing.T) {
	t.Chdir("..") // the command runs from the repository root
	man, err := readManifest("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"paper-gnp", "arb-mmap", "serve-mix"} {
		for _, trace := range []string{"0", "1"} {
			var out bytes.Buffer
			args := []string{"--workload", w, "--seed", "2", "--seconds", "1", "--trace", trace,
				"--out", t.TempDir()}
			code, err := run(args, smallScale, &out)
			if code != 0 || err != nil {
				t.Fatalf("%s trace %s: exit %d: %v\n%s", w, trace, code, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]metric
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %s: last line: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %s: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			declared := man.EndToEnd
			if trace == "1" {
				declared = man.PerLayer
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s trace %s: %d metrics, %d declared", w, trace, len(res.Metrics), len(declared))
			}
			for _, d := range declared {
				if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%s trace %s: metric %s = %+v, declared unit %s", w, trace, d.Name, m, d.Unit)
				}
			}
		}
	}
}

// TestUsage checks that bad flags fail without printing a result.
func TestUsage(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "paper-gnp", "--trace", "2"},
		{"--workload", "paper-gnp", "--seconds", "0"},
	} {
		var out bytes.Buffer
		if code, _ := run(args, smallScale, &out); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, output %q", args, code, out.String())
		}
	}
}
