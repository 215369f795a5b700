package lint_test

import (
	"testing"

	"congestds/internal/lint"
	"congestds/internal/lint/linttest"
)

// TestLostCancel pins the offline lostcancel stand-in: a context cancel
// function assigned to _ (or only ever blank-discarded) is a finding;
// deferring, returning or otherwise using it is not.
func TestLostCancel(t *testing.T) {
	linttest.Run(t, "testdata", lint.LostCancel, "lostcancel")
}

// TestNilness pins the sound nilness subset: field access, slice index,
// map store and pointer deref inside the branch that proved the value
// nil are findings; method calls, nil-map reads and reassigned branches
// are not.
func TestNilness(t *testing.T) {
	linttest.Run(t, "testdata", lint.Nilness, "nilness")
}
