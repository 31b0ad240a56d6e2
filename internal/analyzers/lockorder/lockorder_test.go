package lockorder_test

import (
	"testing"

	"hetmp/internal/analyzers/analysis/analysistest"
	"hetmp/internal/analyzers/lockorder"
)

func TestLockorder(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), lockorder.Analyzer, "locks")
}

func TestLockorderCrossPackage(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), lockorder.Analyzer,
		"xlocks/store", "xlocks")
}

func TestLockorderBlocking(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), lockorder.Analyzer, "b")
}
