package lint_test

import (
	"testing"

	"acuerdo/internal/lint"
	"acuerdo/internal/lint/linttest"
)

func TestSimProc(t *testing.T) {
	linttest.Run(t, linttest.Testdata(t, "."), lint.SimProc, "simproc")
}

// TestHostBlock runs simproc over the host-channel and sync fixture.
func TestHostBlock(t *testing.T) {
	linttest.Run(t, linttest.Testdata(t, "."), lint.SimProc, "hostblock")
}
