package family

import (
	"context"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"congestds/internal/congest"
	"congestds/internal/graph"
	"congestds/internal/verify"
)

func TestRegistryNames(t *testing.T) {
	names := Names()
	if len(names) < 2 {
		t.Fatalf("registry too small: %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted: %v", names)
		}
	}
	for _, want := range []string{"arbmds", "cds", "cor1.3", "mcds", "paper", "thm1.1", "thm1.2"} {
		if _, err := Get(want); err != nil {
			t.Errorf("Get(%q): %v", want, err)
		}
	}
}

func TestGetUnknownListsFamilies(t *testing.T) {
	_, err := Get("nope")
	if err == nil {
		t.Fatal("unknown family accepted")
	}
	for _, want := range []string{"arbmds", "cds", "cor1.3", "mcds", "paper", "thm1.1", "thm1.2"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not list %q", err, want)
		}
	}
}

func TestFamiliesSolveAndCertify(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			f, err := Get(name)
			if err != nil {
				t.Fatal(err)
			}
			if f.Summary == "" {
				t.Error("empty summary")
			}
			g := graph.GNPConnected(40, 0.12, 5)
			res, err := f.Solve(g, Params{Sim: congest.EngineStepped})
			if err != nil {
				t.Fatal(err)
			}
			if res.Cert == nil || !res.Cert.Passed() {
				t.Fatalf("certificate failed: %v", res.Cert)
			}
			if res.Cert.String() == "" {
				t.Error("empty certificate rendering")
			}
			if v := verify.FirstUndominated(g, res.Set); v != -1 {
				t.Errorf("node %d undominated", v)
			}
			if res.Rounds <= 0 {
				t.Errorf("rounds = %d", res.Rounds)
			}
		})
	}
}

// TestParamsKeyCanonicalEquality is the regression test for the canonical
// equality gap Params historically had: a zero-valued parameter set and
// the default-filled set the family actually runs must collide exactly —
// but only after Family.Canon fills the family defaults, and only for
// parameter sets the family treats identically.
func TestParamsKeyCanonicalEquality(t *testing.T) {
	for _, name := range Names() {
		f, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			if f.DefaultEps <= 0 {
				t.Fatalf("family %s has no DefaultEps; Canon cannot canonicalize Eps", name)
			}
			zero := f.Canon(Params{})
			filled := f.Canon(Params{Eps: f.DefaultEps})
			if zero.Key() != filled.Key() {
				t.Errorf("zero-valued and default-filled params do not collide: %q vs %q",
					zero.Key(), filled.Key())
			}
			// A genuinely different Eps must not collide.
			other := f.Canon(Params{Eps: f.DefaultEps / 2})
			if other.Key() == zero.Key() {
				t.Errorf("eps=%g collides with the default key %q", f.DefaultEps/2, zero.Key())
			}
			// Execution-context fields never reach the key.
			ctxed := f.Canon(Params{Ctx: context.Background(), CkptPath: "x.ckpt", CkptEvery: 7})
			if ctxed.Key() != zero.Key() {
				t.Errorf("execution-context fields leaked into the key: %q vs %q",
					ctxed.Key(), zero.Key())
			}
			// DiamBound only keys families that read it.
			diamed := f.Canon(Params{DiamBound: 42})
			if f.NeedsDiam && diamed.Key() == zero.Key() {
				t.Errorf("NeedsDiam family ignores DiamBound in the key")
			}
			if !f.NeedsDiam && diamed.Key() != zero.Key() {
				t.Errorf("DiamBound keys a family that never reads it: %q vs %q",
					diamed.Key(), zero.Key())
			}
		})
	}
}

// TestParamsKeyBustsOnSemanticChange pins that every semantic field
// changes the key: the serving layer's "cache busting on any param change"
// contract reduces to this.
func TestParamsKeyBustsOnSemanticChange(t *testing.T) {
	base := Params{Eps: 0.5}
	for name, p := range map[string]Params{
		"eps":       {Eps: 0.25},
		"sim":       {Eps: 0.5, Sim: congest.EngineStepped},
		"maxrounds": {Eps: 0.5, MaxRounds: 64},
		"diam":      {Eps: 0.5, DiamBound: 9},
	} {
		if p.Key() == base.Key() {
			t.Errorf("%s change did not bust the key: %q", name, p.Key())
		}
	}
}

// TestCanonPreservesSolve pins Canon's contract: canonicalization never
// changes what Solve computes.
func TestCanonPreservesSolve(t *testing.T) {
	g := graph.GNPConnected(30, 0.15, 11)
	for _, name := range Names() {
		f, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			p := Params{Sim: congest.EngineStepped, DiamBound: 2*g.Eccentricity(0) + 2}
			raw, err := f.Solve(g, p)
			if err != nil {
				t.Fatal(err)
			}
			canon, err := f.Solve(g, f.Canon(p))
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(raw.Set, canon.Set) || raw.Rounds != canon.Rounds {
				t.Errorf("Canon changed the solve: set %v/%v rounds %d/%d",
					raw.Set, canon.Set, raw.Rounds, canon.Rounds)
			}
		})
	}
}

// TestCkptMisuseIsConfig: a checkpoint request a family cannot honour (a
// family that never checkpoints, or arbmds off the stepped engine) is caller
// misuse, so every family reports it with the config sentinel class.
func TestCkptMisuseIsConfig(t *testing.T) {
	g := graph.GNPConnected(30, 0.15, 11)
	for _, name := range Names() {
		f, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.ckpt")
			_, err := f.Solve(g, Params{Sim: congest.EngineGoroutine, CkptPath: path})
			if got := congest.SentinelClass(err); got != "config" {
				t.Errorf("class %q (err=%v), want config", got, err)
			}
		})
	}
}

// TestEveryFamilyStopsOnContext: Params.Ctx is the one way to stop a solve,
// so an already-cancelled context must fail every family on every engine
// with the deadline sentinel class.
func TestEveryFamilyStopsOnContext(t *testing.T) {
	g := graph.GNPConnected(30, 0.15, 11)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range Names() {
		f, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, eng := range congest.Engines() {
			t.Run(name+"/"+eng.String(), func(t *testing.T) {
				_, err := f.Solve(g, Params{Sim: eng, Ctx: ctx})
				if got := congest.SentinelClass(err); got != "deadline" {
					t.Errorf("class %q (err=%v), want deadline", got, err)
				}
			})
		}
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	Register(Family{Name: "arbmds", Solve: func(*graph.Graph, Params) (*Result, error) { return nil, nil }})
}
