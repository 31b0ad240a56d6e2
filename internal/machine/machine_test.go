package machine

import (
	"testing"
	"testing/quick"
	"time"
)

func TestPaperPlatformValid(t *testing.T) {
	p := PaperPlatform(1.0)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := p.TotalCores(); got != 112 {
		t.Fatalf("total cores = %d, want 112 (16 Xeon + 96 ThunderX)", got)
	}
	if p.Nodes[p.Origin].Name != "Xeon" {
		t.Fatalf("origin node = %q, want Xeon", p.Nodes[p.Origin].Name)
	}
}

func TestCoreSpeedRatios(t *testing.T) {
	// The calibrated specs must put per-core speed ratios in the band
	// the paper's HetProbe measured (Table 2): roughly 2.5:1 for scalar
	// code up to ~3.5:1 for vector-heavy code.
	xeon, tx := XeonE5_2620v4(), ThunderX()
	scalar := xeon.CoreOpsPerSecond(0) / tx.CoreOpsPerSecond(0)
	vector := xeon.CoreOpsPerSecond(1) / tx.CoreOpsPerSecond(1)
	if scalar < 2.2 || scalar > 2.8 {
		t.Errorf("scalar core speed ratio = %.2f, want ≈2.5", scalar)
	}
	if vector < 3.0 || vector > 4.0 {
		t.Errorf("vector core speed ratio = %.2f, want ≈3.5", vector)
	}
	if tx.Mem.BandwidthBytesPerSec <= xeon.Mem.BandwidthBytesPerSec {
		t.Error("ThunderX must have more memory bandwidth than Xeon (Table 1: 4 vs 2 channels)")
	}
	perCoreXeon := float64(xeon.Cache.LLCBytes) / float64(xeon.Cores)
	perCoreTX := float64(tx.Cache.LLCBytes) / float64(tx.Cores)
	if perCoreXeon <= perCoreTX {
		t.Error("Xeon must have more LLC per core than ThunderX")
	}
}

func TestSerialBoost(t *testing.T) {
	xeon := XeonE5_2620v4()
	if xeon.SerialOpsPerSecond(0.5) <= xeon.CoreOpsPerSecond(0.5) {
		t.Error("Xeon serial phase must benefit from the 3.0 GHz boost clock")
	}
	tx := ThunderX()
	if tx.SerialOpsPerSecond(0.5) != tx.CoreOpsPerSecond(0.5) {
		t.Error("ThunderX has no boost clock; serial rate must equal parallel rate")
	}
}

func TestVecFractionClamped(t *testing.T) {
	n := XeonE5_2620v4()
	if n.CoreOpsPerSecond(-1) != n.CoreOpsPerSecond(0) {
		t.Error("vec < 0 must clamp to 0")
	}
	if n.CoreOpsPerSecond(2) != n.CoreOpsPerSecond(1) {
		t.Error("vec > 1 must clamp to 1")
	}
}

func TestMissStall(t *testing.T) {
	n := ThunderX()
	if n.MissStall(0) != 0 {
		t.Error("zero misses must stall 0")
	}
	one := n.MissStall(1)
	hundred := n.MissStall(100)
	diff := hundred - 100*one
	if diff < 0 {
		diff = -diff
	}
	if diff > 100*time.Nanosecond { // sub-ns rounding amplified ≤ 1ns per miss
		t.Errorf("stall must scale linearly: 100 misses = %v, 100×1 = %v", hundred, 100*one)
	}
	if one <= 0 || one > n.Mem.Latency {
		t.Errorf("single-miss stall %v must be positive and at most the raw latency %v", one, n.Mem.Latency)
	}
}

func TestScaleCaches(t *testing.T) {
	n := XeonE5_2620v4()
	half := n.ScaleCaches(0.5)
	if half.Cache.LLCBytes != n.Cache.LLCBytes/2 {
		t.Errorf("scaled LLC = %d, want %d", half.Cache.LLCBytes, n.Cache.LLCBytes/2)
	}
	tiny := n.ScaleCaches(1e-12)
	if tiny.Cache.LLCBytes < int64(n.Cache.LineBytes*n.Cache.Ways) {
		t.Error("scaling must never shrink the cache below one set")
	}
	if err := tiny.Validate(); err != nil {
		t.Errorf("scaled spec must stay valid: %v", err)
	}
}

func TestCacheSets(t *testing.T) {
	c := CacheSpec{LLCBytes: 1 << 20, LineBytes: 64, Ways: 16}
	if got, want := c.Sets(), 1024; got != want {
		t.Errorf("sets = %d, want %d", got, want)
	}
	degenerate := CacheSpec{LLCBytes: 64, LineBytes: 64, Ways: 16}
	if degenerate.Sets() < 1 {
		t.Error("sets must be at least 1")
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*NodeSpec)
	}{
		{"no cores", func(n *NodeSpec) { n.Cores = 0 }},
		{"no clock", func(n *NodeSpec) { n.ClockGHz = 0 }},
		{"no issue", func(n *NodeSpec) { n.ScalarIPC = 0 }},
		{"no cache", func(n *NodeSpec) { n.Cache.LLCBytes = 0 }},
		{"no bandwidth", func(n *NodeSpec) { n.Mem.BandwidthBytesPerSec = 0 }},
		{"256 ways", func(n *NodeSpec) { n.Cache.Ways = 256 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			n := XeonE5_2620v4()
			tt.mutate(&n)
			if err := n.Validate(); err == nil {
				t.Error("Validate accepted a malformed spec")
			}
		})
	}
	bad := Platform{Nodes: []NodeSpec{XeonE5_2620v4()}, Origin: 3}
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted out-of-range origin")
	}
	wide := XeonE5_2620v4()
	wide.Cache.Ways = maxWays
	if err := wide.Validate(); err != nil {
		t.Errorf("Validate rejected %d ways, the LLC model's limit: %v", maxWays, err)
	}
	empty := Platform{}
	if err := empty.Validate(); err == nil {
		t.Error("Validate accepted empty platform")
	}
}

// Property: ops-per-second is monotonically nondecreasing in the
// vectorizable fraction for any sane spec.
func TestOpsMonotoneInVecProperty(t *testing.T) {
	prop := func(a, b uint8) bool {
		va, vb := float64(a)/255, float64(b)/255
		if va > vb {
			va, vb = vb, va
		}
		for _, n := range []NodeSpec{XeonE5_2620v4(), ThunderX()} {
			if n.CoreOpsPerSecond(va) > n.CoreOpsPerSecond(vb) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: miss stalls are additive and nonnegative.
func TestMissStallAdditiveProperty(t *testing.T) {
	prop := func(a, b uint16) bool {
		n := XeonE5_2620v4()
		sum := n.MissStall(int64(a)) + n.MissStall(int64(b))
		joint := n.MissStall(int64(a) + int64(b))
		diff := sum - joint
		if diff < 0 {
			diff = -diff
		}
		return diff <= time.Microsecond // rounding slack
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
