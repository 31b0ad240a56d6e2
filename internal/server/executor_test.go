package server

import (
	"testing"

	"hetmp/internal/decstore"
	"hetmp/internal/interconnect"
	"hetmp/internal/telemetry"
)

// The executor decides Q1 against the threshold derived for its own
// platform (simThreshold), not against the paper's 100 µs for the
// paper's hardware. Load-smoke's w2 shape probes a fault period
// between the two, so its one probing invocation runs cross-node here
// and would run single-node at 100 µs.
func TestExecutorDecidesAgainstDerivedThreshold(t *testing.T) {
	paper := interconnect.RDMA56().PaperFaultPeriodThreshold
	tel := telemetry.New(telemetry.Options{})
	sp := Spec{Tenant: "t0", Region: "w2", Iterations: 4096, Pages: 32, OpsPerByte: 64, Invocations: 1}
	if _, err := NewSimExecutor(SimExecutorConfig{Seed: 1, Telemetry: tel}).Execute(sp); err != nil {
		t.Fatal(err)
	}
	m := tel.Metrics()
	period := m.Gauge("hetmp_hetprobe_fault_period_seconds", telemetry.L("region", sp.Sig())).Value()
	if period < simThreshold.Seconds() || period >= paper.Seconds() {
		t.Fatalf("%s probed a %v s fault period, want one in [%v, %v)", sp.Sig(), period, simThreshold, paper)
	}
	if n := m.Counter("hetmp_hetprobe_decisions_total", telemetry.L("outcome", "cross-node")).Value(); n != 1 {
		t.Errorf("%s decided cross-node %d times over one probing invocation at a %v s fault period, want 1 (threshold %v)",
			sp.Sig(), n, period, simThreshold)
	}
}

// A span's segments are the bytes the per-iteration body declared,
// iteration by iteration, with runs of consecutive offsets merged.
// Checked over every region size up to 64 bytes, every iteration count
// up to 64 and every span, with the executor's bytesPerIter rule, so
// both the plain case and the wrapping one (more iterations than
// bytes) are covered.
func TestSpanSegmentsMatchPerIterationBody(t *testing.T) {
	type seg struct{ off, n int64 }
	var want, got []seg
	for size := int64(1); size <= 64; size++ {
		for n := 1; n <= 64; n++ {
			bytesPerIter := max(1, size/int64(n))
			for lo := 0; lo < n; lo++ {
				for hi := lo + 1; hi <= n; hi++ {
					want, got = want[:0], got[:0]
					for i := lo; i < hi; i++ {
						off := (int64(i) * bytesPerIter) % size
						if off+bytesPerIter > size {
							off = size - bytesPerIter
						}
						if k := len(want) - 1; k >= 0 && want[k].off+want[k].n == off {
							want[k].n += bytesPerIter
							continue
						}
						want = append(want, seg{off, bytesPerIter})
					}
					spanSegments(lo, hi, bytesPerIter, size, func(off, n int64) { got = append(got, seg{off, n}) })
					if len(got) != len(want) {
						t.Fatalf("size %d, n %d, span [%d, %d): segments %v, want %v", size, n, lo, hi, got, want)
					}
					for k := range want {
						if got[k] != want[k] {
							t.Fatalf("size %d, n %d, span [%d, %d): segments %v, want %v", size, n, lo, hi, got, want)
						}
					}
				}
			}
		}
	}
}

// A one-page region with 8192 iterations has a byte per iteration, and
// each invocation's offsets wrap the page twice. The job completes, and
// two executors built alike give the same result.
func TestExecuteWrappingSpan(t *testing.T) {
	sp := Spec{Tenant: "a", Region: "wrap", Iterations: 8192, Pages: 1}
	run := func() ExecResult {
		xcfg := SimExecutorConfig{Seed: 1}
		xcfg.Store = decstore.NewMem(NewSimExecutor(xcfg).Fingerprint())
		res, err := NewSimExecutor(xcfg).Execute(sp)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("two runs of one job: %+v, then %+v", a, b)
	}
	if a.VirtualNs <= 0 {
		t.Errorf("job ran in %d ns of virtual time", a.VirtualNs)
	}
}
