package dsmstate_test

import (
	"testing"

	"hetmp/internal/analyzers/analysis/analysistest"
	"hetmp/internal/analyzers/dsmstate"
)

func TestDsmstate(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), dsmstate.Analyzer, "dsm")
}
