package interconnect

import (
	"testing"
	"time"

	"hetmp/internal/chaos"
	"hetmp/internal/machine"
)

// Property tests for the chaos-degraded cost model: whatever the
// degradation schedule does, the model must stay physically sensible —
// costs grow monotonically with degradation, and the protocols keep
// their relative ordering (a degraded link slows both stacks; it never
// makes TCP/IP beat RDMA).

// TestDegradedMonotonicInFactors: transfer time and fault cost are
// non-decreasing in both degradation factors.
func TestDegradedMonotonicInFactors(t *testing.T) {
	xeon, tx := machine.XeonE5_2620v4(), machine.ThunderX()
	const page = 4096
	factors := []float64{1, 1.5, 2, 4, 8, 16, 64, 256, 1024}
	for _, base := range []Spec{RDMA56(), TCPIP()} {
		prevFault := time.Duration(-1)
		prevXfer := time.Duration(-1)
		for _, f := range factors {
			d := base.Degraded(f, f)
			fault := d.PageFault(xeon, tx, page, nil).Total()
			xfer := d.TransferTime(page)
			if fault < prevFault {
				t.Errorf("%s: fault cost %v at factor %.1f below %v at a smaller factor",
					base.Name, fault, f, prevFault)
			}
			if xfer < prevXfer {
				t.Errorf("%s: transfer time %v at factor %.1f below %v at a smaller factor",
					base.Name, xfer, f, prevXfer)
			}
			prevFault, prevXfer = fault, xfer
		}
	}
}

// TestDegradedIdentityAndClamp: factor 1 (or below) changes nothing —
// the healthy path must be bit-identical — and sub-1 factors never
// speed the link up.
func TestDegradedIdentityAndClamp(t *testing.T) {
	base := RDMA56()
	if d := base.Degraded(1, 1); d != base {
		t.Error("Degraded(1,1) must be the identity")
	}
	d := base.Degraded(0.25, 0.5)
	if d.OneWayLatency < base.OneWayLatency || d.BandwidthBytesPerSec > base.BandwidthBytesPerSec {
		t.Errorf("sub-1 factors improved the link: %+v", d)
	}
}

// TestDegradedLeavesSoftwareCosts: degradation models the physical
// link; the endpoints' protocol stacks are untouched.
func TestDegradedLeavesSoftwareCosts(t *testing.T) {
	base := TCPIP()
	d := base.Degraded(100, 100)
	if d.ReqSoftBase != base.ReqSoftBase || d.OwnerSoftBase != base.OwnerSoftBase {
		t.Errorf("degradation changed software costs: %+v", d)
	}
	if d.DSMWorkers != base.DSMWorkers || d.JitterFrac != base.JitterFrac {
		t.Errorf("degradation changed protocol parameters: %+v", d)
	}
}

// TestOrderingPreservedUnderEveryChaosProfile samples every named
// chaos profile over time and asserts two invariants at every instant:
// RDMA faults stay cheaper than TCP/IP faults (same link, same
// degradation), and degraded costs never drop below healthy costs.
func TestOrderingPreservedUnderEveryChaosProfile(t *testing.T) {
	xeon, tx := machine.XeonE5_2620v4(), machine.ThunderX()
	const page = 4096
	rdma, tcp := RDMA56(), TCPIP()
	healthyRDMA := rdma.PageFault(xeon, tx, page, nil).Total()

	for _, name := range chaos.Profiles() {
		for seed := int64(1); seed <= 5; seed++ {
			p, err := chaos.Named(name, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			inj := chaos.New(p, seed)
			for now := time.Duration(0); now <= 20*time.Millisecond; now += 137 * time.Microsecond {
				lat, bw := inj.LinkAt(now)
				if lat < 1 || bw < 1 {
					t.Fatalf("%s seed %d at %v: factors (%v, %v) below 1", name, seed, now, lat, bw)
				}
				dr := rdma.Degraded(lat, bw)
				dt := tcp.Degraded(lat, bw)
				rCost := dr.PageFault(xeon, tx, page, nil).Total()
				tCost := dt.PageFault(xeon, tx, page, nil).Total()
				if rCost > tCost {
					t.Fatalf("%s seed %d at %v (factors %.1f/%.1f): RDMA fault %v above TCP/IP %v",
						name, seed, now, lat, bw, rCost, tCost)
				}
				if rCost < healthyRDMA {
					t.Fatalf("%s seed %d at %v: degraded RDMA fault %v cheaper than healthy %v",
						name, seed, now, rCost, healthyRDMA)
				}
			}
		}
	}
}

// TestDegradedFollowsSchedule: a spec degraded by an injector's link
// factors at a virtual time sees the schedule at that time; a nil
// injector's factors leave it unchanged. This is the link state the
// DSM fault path charges.
func TestDegradedFollowsSchedule(t *testing.T) {
	base := RDMA56()
	var none *chaos.Injector
	if got := base.Degraded(none.LinkAt(time.Millisecond)); got != base {
		t.Error("Degraded by a nil injector's link must be the identity")
	}
	inj := chaos.New(chaos.Profile{
		Name: "window",
		Links: []chaos.LinkEvent{{
			Start:           time.Millisecond,
			Duration:        time.Millisecond,
			LatencyFactor:   10,
			BandwidthFactor: 10,
		}},
	}, 1)
	at := func(now time.Duration) Spec { return base.Degraded(inj.LinkAt(now)) }
	before := at(0)
	during := at(1500 * time.Microsecond)
	after := at(3 * time.Millisecond)
	if before != base || after != base {
		t.Error("link degraded outside its window")
	}
	if during.OneWayLatency != 10*base.OneWayLatency {
		t.Errorf("in-window latency %v, want 10× %v", during.OneWayLatency, base.OneWayLatency)
	}
	if during.BandwidthBytesPerSec != base.BandwidthBytesPerSec/10 {
		t.Errorf("in-window bandwidth %v, want base/10", during.BandwidthBytesPerSec)
	}
}
