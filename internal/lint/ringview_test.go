package lint_test

import (
	"testing"

	"acuerdo/internal/lint"
	"acuerdo/internal/lint/linttest"
)

func TestRingView(t *testing.T) {
	linttest.Run(t, linttest.Testdata(t, "."), lint.RingView, "ringview")
}
