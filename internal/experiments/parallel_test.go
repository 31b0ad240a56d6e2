package experiments

import (
	"io"
	"testing"
)

// TestParallelSuiteByteIdentical is the acceptance test for the
// parallel harness: a suite fanned out across workers must render
// byte-identical report text to a sequential suite. Every run owns its
// own virtual-time engine, and the lazily derived products (thresholds
// and the report cells every figure reads) are singleflighted, so
// concurrency may only change wall-clock, never results. The selection
// covers the cell fan-out (Figure 1), the calibration fan-out
// (Figure 4), the nested singleflight chain (Table 2: HetProbe cell →
// threshold) and the ablation fan-out, which bypasses the cells. The
// parallel side is the shared quick report (Parallel = GOMAXPROCS; on
// a one-CPU host both sides are sequential and this checks determinism
// only). TestEmptyStoreFigure6EqualsGolden checks the same over an
// empty decision store.
func TestParallelSuiteByteIdentical(t *testing.T) {
	render := func(rep *Report) string {
		return RenderFigure1(rep.Fig1) + "\n" + RenderFigure4(rep.Fig4) + "\n" +
			RenderTable2(rep.Tbl2) + "\n" + RenderAblation("settling", rep.Ablation["settling"])
	}
	s := Quick()
	s.Parallel = 1
	seqRep, err := s.Report("fig1,fig4,tbl2,ablation", io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	_, parRep := quickReport(t)
	if seq, par := render(seqRep), render(parRep); seq != par {
		t.Errorf("parallel report differs from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s", seq, par)
	}
}
