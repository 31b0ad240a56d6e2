// Package interconnect models the links coupling the nodes: latency,
// bandwidth, per-message software cost and jitter. Two calibrated
// protocols are provided, matching the paper's Section 3.2
// microbenchmark measurements over 56 Gbps InfiniBand: RDMA (page fault
// ≈ 30 µs) and TCP/IP (≈ 90 µs when faulting from the Xeon, ≈ 120 µs
// from the ThunderX — the requester's kernel path dominates, so the
// cost scales with the requesting node's DSM handler cost).
package interconnect

import (
	"fmt"
	"math/rand"
	"time"

	"hetmp/internal/machine"
	"hetmp/internal/telemetry"
)

// referenceHandlerCost is the DSM handler cost the software-overhead
// bases are calibrated against (the Xeon's).
const referenceHandlerCost = 4 * time.Microsecond

// Spec describes a protocol running over the physical link.
type Spec struct {
	// Name identifies the protocol ("rdma", "tcpip").
	Name string
	// OneWayLatency is the wire latency of one message.
	OneWayLatency time.Duration
	// BandwidthBytesPerSec is the link bandwidth.
	BandwidthBytesPerSec float64
	// ReqSoftBase is the requester-side software cost of a page fault
	// (fault handling, protocol send/receive) on the reference node;
	// scaled by the requesting node's relative DSM handler cost.
	ReqSoftBase time.Duration
	// OwnerSoftBase is the owner-side cost of servicing one protocol
	// request, similarly scaled; this part serializes through the
	// owner's DSM worker pool.
	OwnerSoftBase time.Duration
	// JitterFrac is the uniform ±fraction applied to software costs
	// (TCP/IP latencies are noisy; Section 5's case study).
	JitterFrac float64
	// DSMWorkers is the number of kernel DSM worker threads per node
	// servicing remote requests (divides the effective owner service
	// time under load).
	DSMWorkers int
	// PaperFaultPeriodThreshold is the break-even page-fault period
	// the paper derived for this protocol (100 µs RDMA, 7600 µs
	// TCP/IP): paper data, and core's default for callers that derive
	// none. The suite and the serving host use core.DeriveThreshold.
	PaperFaultPeriodThreshold time.Duration
	// BatchFaults enables Popcorn-style request batching in the DSM:
	// contiguous faulting pages in identical coherence state are
	// serviced as one transaction — one requester inline cost, one
	// owner service, one control message per holder, with the wire
	// occupied for the full multi-page payload so bytes moved are
	// conserved. Off (the default) reproduces the paper's strictly
	// per-page protocol.
	BatchFaults bool

	// Cached telemetry series handles, installed by WithTelemetry.
	// Unexported so they ride along with value copies (Scaled and
	// config plumbing) without appearing in the public configuration
	// surface; the nil handles are valid nops, so the cost model pays
	// one nil test per fault when telemetry is off.
	faultLatency *telemetry.Histogram
	ctrlLatency  *telemetry.Histogram
}

// WithTelemetry returns the spec with per-fault latency observation
// installed: every PageFault and ControlMessage cost computed from the
// returned copy is recorded into hetmp_interconnect_fault_seconds and
// hetmp_interconnect_control_seconds (labeled by protocol). A nil
// (disabled) Telemetry returns the spec unchanged.
func (s Spec) WithTelemetry(t *telemetry.Telemetry) Spec {
	if !t.Enabled() {
		return s
	}
	out := s
	out.faultLatency = t.Metrics().Histogram("hetmp_interconnect_fault_seconds", telemetry.L("proto", s.Name))
	out.ctrlLatency = t.Metrics().Histogram("hetmp_interconnect_control_seconds", telemetry.L("proto", s.Name))
	return out
}

// Degraded returns the spec with wire latency multiplied by latFactor
// and bandwidth divided by bwFactor (both clamped to ≥ 1). Software
// costs are unchanged: degradation models the physical link, not the
// endpoints' protocol stacks.
func (s Spec) Degraded(latFactor, bwFactor float64) Spec {
	if latFactor <= 1 && bwFactor <= 1 {
		return s
	}
	out := s
	if latFactor > 1 {
		out.OneWayLatency = time.Duration(float64(s.OneWayLatency) * latFactor)
	}
	if bwFactor > 1 {
		out.BandwidthBytesPerSec = s.BandwidthBytesPerSec / bwFactor
	}
	return out
}

// RDMA56 returns the RDMA-over-InfiniBand protocol model.
func RDMA56() Spec {
	return Spec{
		Name:                      "rdma",
		OneWayLatency:             2 * time.Microsecond,
		BandwidthBytesPerSec:      56e9 / 8,
		ReqSoftBase:               12 * time.Microsecond,
		OwnerSoftBase:             8 * time.Microsecond,
		JitterFrac:                0.02,
		DSMWorkers:                2,
		PaperFaultPeriodThreshold: 100 * time.Microsecond,
	}
}

// TCPIP returns the TCP/IP-over-InfiniBand protocol model.
func TCPIP() Spec {
	return Spec{
		Name:                      "tcpip",
		OneWayLatency:             12 * time.Microsecond,
		BandwidthBytesPerSec:      56e9 / 8, // IPoIB; software, not wire, is the bottleneck
		ReqSoftBase:               45 * time.Microsecond,
		OwnerSoftBase:             12 * time.Microsecond,
		JitterFrac:                0.25,
		DSMWorkers:                2,
		PaperFaultPeriodThreshold: 7600 * time.Microsecond,
	}
}

// ByName returns the calibrated protocol model called name ("rdma" or
// "tcpip").
func ByName(name string) (Spec, error) {
	switch name {
	case "rdma":
		return RDMA56(), nil
	case "tcpip":
		return TCPIP(), nil
	}
	return Spec{}, fmt.Errorf("interconnect: unknown protocol %q (valid: rdma, tcpip)", name)
}

// Scaled returns the protocol with all latencies and software costs
// multiplied by f (and bandwidth divided by f): a time scale model of
// the interconnect, used when benchmark problem sizes are scaled down
// so that the compute-to-communication ratios — the quantities every
// scheduler decision depends on — are preserved (DESIGN.md §5).
func (s Spec) Scaled(f float64) Spec {
	if f <= 0 || f == 1 {
		return s
	}
	out := s
	out.OneWayLatency = time.Duration(float64(s.OneWayLatency) * f)
	out.ReqSoftBase = time.Duration(float64(s.ReqSoftBase) * f)
	out.OwnerSoftBase = time.Duration(float64(s.OwnerSoftBase) * f)
	out.BandwidthBytesPerSec = s.BandwidthBytesPerSec / f
	out.PaperFaultPeriodThreshold = time.Duration(float64(s.PaperFaultPeriodThreshold) * f)
	return out
}

// Validate reports malformed specs.
func (s Spec) Validate() error {
	switch {
	case s.BandwidthBytesPerSec <= 0:
		return fmt.Errorf("interconnect %q: no bandwidth", s.Name)
	case s.OneWayLatency < 0 || s.ReqSoftBase < 0 || s.OwnerSoftBase < 0:
		return fmt.Errorf("interconnect %q: negative cost parameter", s.Name)
	case s.DSMWorkers < 1:
		return fmt.Errorf("interconnect %q: needs at least one DSM worker", s.Name)
	}
	return nil
}

// scale returns the node's software-cost multiplier relative to the
// reference node.
func scale(n *machine.NodeSpec) float64 {
	if n.DSMHandlerCost <= 0 {
		return 1
	}
	return float64(n.DSMHandlerCost) / float64(referenceHandlerCost)
}

// TransferTime returns the wire occupancy for a payload of n bytes.
func (s Spec) TransferTime(n int) time.Duration {
	return time.Duration(float64(n) / s.BandwidthBytesPerSec * float64(time.Second))
}

// FaultCost is the decomposed cost of one page fault serviced across the
// link. Inline is paid by the faulting thread unconditionally; Owner
// serializes through the owner node's DSM worker pool; Wire serializes
// through the link.
type FaultCost struct {
	Inline time.Duration
	Owner  time.Duration
	Wire   time.Duration
}

// Total is the uncontended end-to-end fault latency.
func (c FaultCost) Total() time.Duration { return c.Inline + c.Owner + c.Wire }

// PageFault returns the cost of transferring a page of pageBytes from
// owner to requester, with optional jitter drawn from rng (nil disables
// jitter).
func (s Spec) PageFault(requester, owner machine.NodeSpec, pageBytes int, rng *rand.Rand) FaultCost {
	return s.PageFaultBetween(&requester, &owner, pageBytes, rng)
}

// PageFaultBetween is PageFault for specs and nodes held by pointer, so
// the DSM's fault path copies none of them.
func (s *Spec) PageFaultBetween(requester, owner *machine.NodeSpec, pageBytes int, rng *rand.Rand) FaultCost {
	req := time.Duration(float64(s.ReqSoftBase) * scale(requester))
	own := time.Duration(float64(s.OwnerSoftBase) * scale(owner))
	if rng != nil && s.JitterFrac > 0 {
		j := 1 + s.JitterFrac*(2*rng.Float64()-1)
		req = time.Duration(float64(req) * j)
		own = time.Duration(float64(own) * j)
	}
	cost := FaultCost{
		Inline: req + 2*s.OneWayLatency, // request out, data headers back
		Owner:  own,
		Wire:   s.TransferTime(pageBytes),
	}
	s.faultLatency.Observe(cost.Total())
	return cost
}

// ControlMessage returns the cost of a small protocol message (e.g. an
// invalidation) from one node to another: paid inline by the sender,
// plus a service component at the receiver.
func (s Spec) ControlMessage(sender, receiver machine.NodeSpec) FaultCost {
	return s.ControlMessageBetween(&sender, &receiver)
}

// ControlMessageBetween is ControlMessage for specs and nodes held by
// pointer.
func (s *Spec) ControlMessageBetween(sender, receiver *machine.NodeSpec) FaultCost {
	cost := FaultCost{
		Inline: 2 * s.OneWayLatency,
		Owner:  time.Duration(float64(s.OwnerSoftBase) * scale(receiver) / 2),
	}
	s.ctrlLatency.Observe(cost.Total())
	return cost
}

// EffectiveOwnerService divides the owner-side service time across the
// node's DSM worker pool, approximating W parallel workers with one
// server of 1/W the service time.
func (s Spec) EffectiveOwnerService(d time.Duration) time.Duration {
	return d / time.Duration(s.DSMWorkers)
}
