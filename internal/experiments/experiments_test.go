package experiments

import (
	"errors"
	"strings"
	"testing"

	"congestds/internal/congest"
)

// The entire experiment suite must reproduce every claim (0 violations) at
// the quick scale. This doubles as the repository's integration test: it
// exercises every package end to end.
func TestAllExperimentsReproduceClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in -short mode")
	}
	for i, tab := range All(true) {
		tab, want := tab, Suite()[i].ID
		t.Run(tab.ID, func(t *testing.T) {
			if tab.ID != want {
				t.Errorf("Suite lists %q at position %d but the table reports ID %q", want, i, tab.ID)
			}
			if tab.Violations != 0 {
				t.Errorf("%d claim violations:\n%s", tab.Violations, tab)
			}
			if len(tab.Rows) == 0 {
				t.Error("experiment produced no rows")
			}
		})
	}
}

// The congest engine must be invisible at the experiment level: rendered
// tables (sizes, round counts, bandwidth columns) are byte-identical under
// both engines.
func TestExperimentsEngineInvariant(t *testing.T) {
	run := func(eng congest.Engine, exp func(bool) *Table) string {
		old := SimEngine
		SimEngine = eng
		defer func() { SimEngine = old }()
		return exp(true).String()
	}
	for _, exp := range []struct {
		name string
		fn   func(bool) *Table
	}{
		{"E3", E3},
		{"E4", E4},
		{"E-arb", EArb},
		{"E-mcds", EMcds},
	} {
		if testing.Short() && exp.name != "E3" {
			continue
		}
		ref := run(congest.EngineGoroutine, exp.fn)
		if got := run(congest.EngineStepped, exp.fn); ref != got {
			t.Errorf("%s diverges across congest engines:\n--- goroutine\n%s\n--- stepped\n%s", exp.name, ref, got)
		}
	}
}

// TestEArbScaleSmall drives the full-size table shape at a toy size, so
// the -earb-scale path is covered without a million-node CI run.
func TestEArbScaleSmall(t *testing.T) {
	tab := EArbScale(400)
	if tab.Violations != 0 {
		t.Errorf("%d violations:\n%s", tab.Violations, tab)
	}
	if len(tab.Rows) != 2 {
		t.Errorf("rows=%d, want 2 (uforest, gridx)", len(tab.Rows))
	}
}

// TestEMcdsScaleSmall drives the full-size table shape at a toy size, so
// the -emcds-scale path is covered without a million-node CI run.
func TestEMcdsScaleSmall(t *testing.T) {
	tab := EMcdsScale(400)
	if tab.Violations != 0 {
		t.Errorf("%d violations:\n%s", tab.Violations, tab)
	}
	if len(tab.Rows) != 2 {
		t.Errorf("rows=%d, want 2 (uforest, ba)", len(tab.Rows))
	}
}

func TestErrorRowShape(t *testing.T) {
	tab := &Table{Header: []string{"family", "n", "ok"}}
	tab.errorRow("gnp", errors.New("boom"))
	if tab.Violations != 1 || len(tab.Rows) != 1 {
		t.Fatalf("violations=%d rows=%d", tab.Violations, len(tab.Rows))
	}
	if row := tab.Rows[0]; row[0] != "gnp" || row[1] != "-" || !strings.Contains(row[2], "boom") {
		t.Errorf("bad error row: %v", row)
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		ID:     "EX",
		Claim:  "example",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
	}
	s := tab.String()
	for _, want := range []string{"EX", "example", "333", "violations: 0"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestOptEstimateExactOnSmall(t *testing.T) {
	for _, fam := range benchFamilies(true) {
		lb, exact := optEstimate(fam.G)
		if fam.G.N() <= 24 && !exact {
			t.Errorf("%s: expected exact OPT for n=%d", fam.Name, fam.G.N())
		}
		if lb < 1 {
			t.Errorf("%s: lower bound %v < 1", fam.Name, lb)
		}
	}
}
