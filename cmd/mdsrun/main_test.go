package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"congestds/internal/family"
	"congestds/internal/graph"
	"congestds/internal/obs"
)

// Regression test for the unknown-algorithm error: it must list every
// valid -algo value (the baselines and the registered families), mirroring
// the graph.Named unknown-family fix. Before this, the error was a bare
// `unknown algorithm "x"` and users had to read the source to find the
// valid names.
func TestUnknownAlgoErrorListsAlgorithms(t *testing.T) {
	err := unknownAlgoErr("frobnicate")
	if err == nil {
		t.Fatal("nil error")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"frobnicate"`) {
		t.Errorf("error does not echo the bad name: %q", msg)
	}
	for _, want := range []string{"paper", "thm1.1", "thm1.2", "cor1.3", "cds", "greedy", "exact", "arbmds", "mcds"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error does not list %q: %q", want, msg)
		}
	}
}

func TestAlgoNamesSortedAndComplete(t *testing.T) {
	names := algoNames()
	if !sort.StringsAreSorted(names) {
		t.Errorf("algoNames not sorted: %v", names)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate algorithm name %q", n)
		}
		seen[n] = true
	}
	for _, want := range []string{"arbmds", "mcds"} {
		if !seen[want] {
			t.Errorf("registered family %q missing from algoNames", want)
		}
	}
}

// failCert is a Certificate that never passes, backing the exit-code-3
// regression family.
type failCert struct{}

func (failCert) String() string { return "deliberately failing certificate" }
func (failCert) Passed() bool   { return false }

func init() {
	// A family whose output always fails certification: the only way to
	// exercise exit code 3 without planting a bug in a real algorithm.
	family.Register(family.Family{
		Name:    "testbadcert",
		Summary: "test-only family with a failing certificate",
		Solve: func(g *graph.Graph, p family.Params) (*family.Result, error) {
			return &family.Result{Set: []int{0}, Cert: failCert{}}, nil
		},
	})
}

// runCase captures one invocation.
func runCase(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestExitCodes pins the scripting contract documented in the package
// comment: 0 success, 1 run failure (+ sentinel line), 2 usage, 3
// certification violation.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name     string
		args     []string
		want     int
		inStderr string
	}{
		{"success", []string{"-family", "gnp", "-n", "40", "-algo", "greedy"}, 0, ""},
		{"success-family", []string{"-family", "gnp", "-n", "60", "-algo", "arbmds", "-sim", "stepped"}, 0, ""},
		{"bad-flag", []string{"-no-such-flag"}, 2, ""},
		{"positional-args", []string{"stray"}, 2, "unexpected arguments"},
		{"unknown-algo", []string{"-algo", "nope"}, 2, "unknown algorithm"},
		{"unknown-sim", []string{"-sim", "quantum"}, 2, ""},
		{"removed-sim", []string{"-sim", "sharded"}, 2, "use stepped"},
		{"unknown-graph-family", []string{"-family", "nope", "-algo", "greedy"}, 1, ""},
		{"exact-too-big", []string{"-algo", "exact", "-n", "100"}, 2, "n ≤ 64"},
		{"eps-out-of-range", []string{"-family", "gnp", "-n", "40", "-algo", "thm1.2", "-eps", "2"}, 2, "out of (0,1]"},
		{"ckpt-wrong-algo", []string{"-algo", "greedy", "-ckpt", "x.ckpt"}, 2, "-ckpt requires"},
		{"ckpt-wrong-sim", []string{"-algo", "arbmds", "-sim", "goroutine", "-ckpt", "x.ckpt"}, 2, "-ckpt requires"},
		{"ckpt-every-zero", []string{"-algo", "arbmds", "-sim", "stepped", "-ckpt", "x.ckpt", "-ckpt-every", "0"}, 2, "-ckpt-every"},
		{"missing-input", []string{"-in", "no/such/file.csrg", "-algo", "greedy"}, 1, ""},
		{"cert-violation", []string{"-family", "gnp", "-n", "20", "-algo", "testbadcert"}, 3, "certification violation"},
		{"deadline", []string{"-family", "gnp", "-n", "80", "-algo", "arbmds", "-sim", "stepped", "-deadline", "1ns"}, 1, "sentinel deadline"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, _, stderr := runCase(t, c.args...)
			if code != c.want {
				t.Fatalf("run(%v) = %d, want %d\nstderr: %s", c.args, code, c.want, stderr)
			}
			if c.inStderr != "" && !strings.Contains(stderr, c.inStderr) {
				t.Fatalf("run(%v): stderr %q does not contain %q", c.args, stderr, c.inStderr)
			}
		})
	}
}

// TestCkptFlagWritesAndResumes: a checkpointed run leaves a decodable file
// behind, and rerunning against it succeeds (resume from the final
// checkpoint) with the same reported set size.
func TestCkptFlagWritesAndResumes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	args := []string{"-family", "gnp", "-n", "120", "-algo", "arbmds", "-sim", "stepped", "-ckpt", path}
	code, out1, stderr := runCase(t, args...)
	if code != 0 {
		t.Fatalf("checkpointed run exited %d\nstderr: %s", code, stderr)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("no checkpoint left behind: %v", err)
	}
	code, out2, stderr := runCase(t, args...)
	if code != 0 {
		t.Fatalf("resumed run exited %d\nstderr: %s", code, stderr)
	}
	size := func(out string) string {
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "set size:") {
				return line
			}
		}
		return ""
	}
	if s1, s2 := size(out1), size(out2); s1 == "" || s1 != s2 {
		t.Fatalf("set size diverged across resume: %q vs %q", s1, s2)
	}
}

// TestTelemetryFlags: the observability surface end to end — -profile
// prints the profile table, -trace writes a JSONL stream that replays into
// the same round count the run reported, -trace-chrome writes valid JSON,
// and the pprof flags leave non-empty profiles behind. All riding one
// small stepped run.
func TestTelemetryFlags(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "run.jsonl")
	chrome := filepath.Join(dir, "run.chrome.json")
	cpu := filepath.Join(dir, "cpu.pprof")
	heap := filepath.Join(dir, "heap.pprof")
	code, stdout, stderr := runCase(t,
		"-family", "gnp", "-n", "120", "-algo", "arbmds", "-sim", "stepped",
		"-profile", "-trace", trace, "-trace-chrome", chrome,
		"-pprof-cpu", cpu, "-pprof-heap", heap)
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr)
	}
	for _, want := range []string{"profile:", "round wall time", "message size histogram"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout missing %q:\n%s", want, stdout)
		}
	}

	// The trace replays into a profile agreeing with the printed one on
	// round count (the profile line renders "N rounds").
	f, err := os.Open(trace)
	if err != nil {
		t.Fatalf("trace file: %v", err)
	}
	defer f.Close()
	agg := obs.NewAggregator()
	if err := obs.Replay(f, agg); err != nil {
		t.Fatalf("replay: %v", err)
	}
	p := agg.Profile()
	if p.Rounds == 0 {
		t.Error("replayed trace has no rounds")
	}
	if !strings.Contains(stdout, fmt.Sprintf("%d rounds", p.Rounds)) {
		t.Errorf("printed profile disagrees with replayed trace (%d rounds):\n%s", p.Rounds, stdout)
	}

	var anyJSON []any
	chromeBytes, err := os.ReadFile(chrome)
	if err != nil {
		t.Fatalf("chrome file: %v", err)
	}
	if err := json.Unmarshal(chromeBytes, &anyJSON); err != nil {
		t.Errorf("chrome trace is not a JSON array: %v", err)
	}
	for _, path := range []string{cpu, heap} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("pprof file %s missing or empty (err=%v)", path, err)
		}
	}
}

// TestProfilePrintsLedgerWall: on a pipeline algorithm the profile output
// includes the ledger with observer-attributed per-phase wall time.
func TestProfilePrintsLedgerWall(t *testing.T) {
	code, stdout, stderr := runCase(t, "-family", "gnp", "-n", "60", "-algo", "paper", "-profile")
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "ledger:") || !strings.Contains(stdout, "wall=") {
		t.Errorf("profile output missing wall-annotated ledger:\n%s", stdout)
	}
}
