package arbmds

import (
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"congestds/internal/chaos"
	"congestds/internal/congest"
	"congestds/internal/graph"
)

// TestPeelStateRoundTrip: RestoreState∘AppendState is the identity on the
// mutable fields, for every flag combination.
func TestPeelStateRoundTrip(t *testing.T) {
	for flags := 0; flags <= peelFlagMax; flags++ {
		src := &peelStep{
			s:         int32(7 + flags),
			white:     flags&peelWhite != 0,
			selfNom:   flags&peelSelfNom != 0,
			announce:  flags&peelAnnounce != 0,
			candidate: flags&peelCandidate != 0,
		}
		dst := &peelStep{}
		if err := dst.RestoreState(src.AppendState(nil)); err != nil {
			t.Fatalf("flags %d: %v", flags, err)
		}
		if !reflect.DeepEqual(src, dst) {
			t.Fatalf("flags %d: %+v round-tripped to %+v", flags, src, dst)
		}
	}
}

// TestPeelStateRejects: inputs the encoder cannot produce are errors, not
// silent misreads.
func TestPeelStateRejects(t *testing.T) {
	good := (&peelStep{s: 5, white: true}).AppendState(nil)
	for name, data := range map[string][]byte{
		"empty":     nil,
		"no-flags":  good[:len(good)-1],
		"trailing":  append(append([]byte(nil), good...), 0),
		"bad-flags": {good[0], peelFlagMax + 1},
		"overflow":  append(congest.AppendVarint(nil, 1<<40), 0),
	} {
		if err := (&peelStep{}).RestoreState(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestBoolsHostRoundTrip covers the bit-packing across padding shapes and
// the corruption rejections.
func TestBoolsHostRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 64, 100} {
		src := boolsHost{xs: make([]bool, n)}
		for i := range src.xs {
			src.xs[i] = i%3 == 0
		}
		dst := boolsHost{xs: make([]bool, n)}
		if err := dst.RestoreHost(src.AppendHost(nil)); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !reflect.DeepEqual(src.xs, dst.xs) {
			t.Fatalf("n=%d: vector lost in round trip", n)
		}
	}
}

// TestBoolsHostRejects: length mismatches and set padding bits are errors.
func TestBoolsHostRejects(t *testing.T) {
	enc := (&boolsHost{xs: make([]bool, 9)}).AppendHost(nil)
	if err := (&boolsHost{xs: make([]bool, 8)}).RestoreHost(enc); err == nil {
		t.Error("length mismatch accepted")
	}
	if err := (&boolsHost{xs: make([]bool, 9)}).RestoreHost(enc[:len(enc)-1]); err == nil {
		t.Error("truncated body accepted")
	}
	bad := append([]byte(nil), enc...)
	bad[len(bad)-1] |= 0x80 // bit 15 of a 9-slot vector: padding
	if err := (&boolsHost{xs: make([]bool, 9)}).RestoreHost(bad); err == nil {
		t.Error("set padding bit accepted")
	}
}

// TestSolveCkptRejectsNonStepped: checkpointing is a stepped-engine
// feature; other engines must refuse loudly, as caller misuse (the config
// sentinel class), like every other family's checkpoint misuse.
func TestSolveCkptRejectsNonStepped(t *testing.T) {
	g := graph.Cycle(16)
	path := filepath.Join(t.TempDir(), "run.ckpt")
	_, err := Solve(g, Params{Sim: congest.EngineGoroutine, CkptPath: path})
	if err == nil || !strings.Contains(err.Error(), "EngineStepped") {
		t.Fatalf("err=%v, want a stepped-engine requirement error", err)
	}
	if !errors.Is(err, congest.ErrConfig) {
		t.Errorf("err=%v does not wrap congest.ErrConfig (class %q)", err, congest.SentinelClass(err))
	}
}

// TestSolveCkptResume: a Solve interrupted by an injected fault resumes
// from its checkpoint to the same set and metrics as an uninterrupted run.
func TestSolveCkptResume(t *testing.T) {
	g := graph.GNPConnected(300, 0.03, 9)
	want, err := Solve(g, Params{Sim: congest.EngineStepped})
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted attempt, driven at the congest layer so a fault hook can
	// abort it mid-run; checkpoints land where Solve will look.
	path := filepath.Join(t.TempDir(), "run.ckpt")
	inD := make([]bool, g.N())
	cfg := congest.Config{Engine: congest.EngineStepped,
		Hooks: chaos.NewPlan(0, chaos.Fault{Kind: chaos.FailRound, Round: 5})}
	_, err = congest.NewNetwork(g, cfg).RunSteppedCkpt(StepFactory(g, 0.5, inD),
		congest.CkptSpec{Path: path, Every: 1, Host: &boolsHost{xs: inD}})
	if !errors.Is(err, congest.ErrInjected) {
		t.Fatalf("interrupted run: err=%v, want ErrInjected", err)
	}

	got, err := Solve(g, Params{Sim: congest.EngineStepped, CkptPath: path})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !reflect.DeepEqual(got.Set, want.Set) {
		t.Errorf("resumed set diverges: %d vs %d nodes", len(got.Set), len(want.Set))
	}
	if got.Metrics != want.Metrics {
		t.Errorf("resumed metrics diverge:\n got: %+v\nwant: %+v", got.Metrics, want.Metrics)
	}
}
