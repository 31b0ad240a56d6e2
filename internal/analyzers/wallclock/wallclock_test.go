package wallclock_test

import (
	"testing"

	"hetmp/internal/analyzers/analysis/analysistest"
	"hetmp/internal/analyzers/wallclock"
)

func TestWallclock(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), wallclock.Analyzer, "core", "decstore", "rpcboundary")
}
