package conformance

import (
	"errors"
	"testing"

	"congestds/internal/chaos"
	"congestds/internal/congest"
	"congestds/internal/graph"
)

// The fault-schedule corpus: every registered program, on a corpus of
// graphs, under a corpus of fault plans — crashes at interior opportunities,
// deterministic payload corruption, injected round faults and deterministic
// deadlines — must stay engine-indistinguishable: same outputs (or same
// sentinel class) and identical honest metrics across both engines and
// both program forms. Diff does the comparison; this file supplies the
// schedules.

// namedPlan is one fault schedule of the corpus.
type namedPlan struct {
	name string
	plan *chaos.Plan
}

// faultPlans builds the fault-schedule corpus for an n-node graph. Node and
// opportunity indices are chosen to hit the small corpus graphs (crashes
// clamp to n); schedules that reference rounds past a program's lifetime
// simply never fire, which is itself part of the corpus (a fault that does
// not land must not perturb anything).
func faultPlans(n int, short bool) []namedPlan {
	clamp := func(v int) int {
		if v >= n {
			return n - 1
		}
		return v
	}
	plans := []namedPlan{
		{"crash-init", chaos.NewPlan(1,
			chaos.Fault{Kind: chaos.CrashNode, Node: 0, Round: 0},
			chaos.Fault{Kind: chaos.CrashNode, Node: clamp(3), Round: 0},
		)},
		{"crash-interior", chaos.NewPlan(2,
			chaos.Fault{Kind: chaos.CrashNode, Node: clamp(1), Round: 1},
			chaos.Fault{Kind: chaos.CrashNode, Node: clamp(2), Round: 2},
		)},
		{"truncate", chaos.NewPlan(3,
			chaos.Fault{Kind: chaos.TruncatePayload, Node: 0, Port: -1, Round: 1, Arg: 0},
			chaos.Fault{Kind: chaos.TruncatePayload, Node: clamp(1), Port: 0, Round: 2, Arg: 1},
		)},
		{"flip", chaos.NewPlan(4,
			chaos.Fault{Kind: chaos.FlipPayload, Node: 0, Port: -1, Round: 1},
			chaos.Fault{Kind: chaos.FlipPayload, Node: clamp(5), Port: -1, Round: 0},
		)},
		{"deadline-at-2", chaos.NewPlan(5,
			chaos.Fault{Kind: chaos.DeadlineRound, Round: 2},
		)},
		{"fail-at-1", chaos.NewPlan(6,
			chaos.Fault{Kind: chaos.FailRound, Round: 1},
		)},
		{"crash-flood-source", chaos.NewPlan(7,
			chaos.Fault{Kind: chaos.CrashNode, Node: 0, Round: 0},
			chaos.Fault{Kind: chaos.DeadlineRound, Round: 4},
		)},
		{"random-8", chaos.RandomPlan(0xc0ffee, n, 6, 8)},
	}
	if !short {
		plans = append(plans,
			namedPlan{"extend-overflow", chaos.NewPlan(8,
				chaos.Fault{Kind: chaos.ExtendPayload, Node: 0, Port: -1, Round: 1, Arg: 64},
			)},
			namedPlan{"stall-and-crash", chaos.NewPlan(9,
				chaos.Fault{Kind: chaos.StallRound, Round: 1, Arg: 1},
				chaos.Fault{Kind: chaos.CrashNode, Node: clamp(4), Round: 2},
			)},
			namedPlan{"random-12", chaos.RandomPlan(0xfeedbeef, n, 6, 12)},
		)
	}
	return plans
}

// TestFaultScheduleConformance is the fault-schedule differential suite.
func TestFaultScheduleConformance(t *testing.T) {
	short := testing.Short()
	corpus := Corpus(true)
	if short {
		corpus = corpus[:10]
	}
	for _, c := range Cases() {
		t.Run(c.Name, func(t *testing.T) {
			for _, ng := range corpus {
				for _, np := range faultPlans(ng.G.N(), short) {
					cfg := congest.Config{Hooks: np.plan}
					if err := Diff(c, ng.G, cfg); err != nil {
						t.Errorf("graph %s, plan %s: %v", ng.Name, np.name, err)
					}
				}
			}
		})
	}
}

// TestCrashAllNodes: crashing every node at opportunity 0 must end the run
// after zero rounds on every engine, with zero traffic counted.
func TestCrashAllNodes(t *testing.T) {
	g := graph.Grid(5, 6)
	faults := make([]chaos.Fault, g.N())
	for v := range faults {
		faults[v] = chaos.Fault{Kind: chaos.CrashNode, Node: v, Round: 0}
	}
	plan := chaos.NewPlan(0, faults...)
	c := Cases()[0]
	for _, eng := range congest.Engines() {
		check := func(form string, m congest.Metrics, err error) {
			if err != nil {
				t.Errorf("%v %s: err=%v, want nil (a crash is not a run failure)", eng, form, err)
			}
			if m.Rounds != 0 || m.Messages != 0 || m.Bits != 0 {
				t.Errorf("%v %s: metrics (%d rounds, %d msgs, %d bits) after total crash, want all zero",
					eng, form, m.Rounds, m.Messages, m.Bits)
			}
		}
		cfg := congest.Config{Engine: eng, Hooks: plan}
		prog, _ := c.Build(g)
		m, err := congest.NewNetwork(g, cfg).Run(prog)
		check("blocking", m, err)
		factory, _ := c.BuildStep(g)
		m, err = congest.NewNetwork(g, cfg).RunStepped(factory)
		check("stepped", m, err)
	}
}

// TestInjectedRoundFaultClasses pins the sentinel classes of injected round
// faults on every engine: FailRound → "injected", DeadlineRound →
// "deadline", and the metrics include the round the fault fired at.
func TestInjectedRoundFaultClasses(t *testing.T) {
	g := graph.Cycle(17)
	c := Cases()[1] // flood-distance: runs n rounds, comfortably past round 3
	for _, tc := range []struct {
		kind  chaos.Kind
		class string
	}{
		{chaos.FailRound, "injected"},
		{chaos.DeadlineRound, "deadline"},
	} {
		plan := chaos.NewPlan(0, chaos.Fault{Kind: tc.kind, Round: 3})
		for _, eng := range congest.Engines() {
			cfg := congest.Config{Engine: eng, Hooks: plan}
			prog, _ := c.Build(g)
			m, err := congest.NewNetwork(g, cfg).Run(prog)
			if got := congest.SentinelClass(err); got != tc.class {
				t.Errorf("%v under %v: class %q (err=%v), want %q", eng, tc.kind, got, err, tc.class)
			}
			if m.Rounds != 3 {
				t.Errorf("%v under %v: Rounds=%d, want 3 (the boundary the fault fired at)", eng, tc.kind, m.Rounds)
			}
			if tc.kind == chaos.FailRound && !errors.Is(err, congest.ErrInjected) {
				t.Errorf("%v: err=%v does not wrap ErrInjected", eng, err)
			}
			if tc.kind == chaos.DeadlineRound && !errors.Is(err, congest.ErrDeadline) {
				t.Errorf("%v: err=%v does not wrap ErrDeadline", eng, err)
			}
		}
	}
}
