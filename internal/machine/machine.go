// Package machine describes the hardware being simulated: nodes (sets of
// cache-coherent homogeneous cores), their cache hierarchies and memory
// systems. The two built-in specs encode Table 1 of the paper — the
// Intel Xeon E5-2620v4 and Cavium ThunderX servers — calibrated so that
// the relative behaviours the paper reports (per-core speed ratios
// around 2.5–3.7:1, ThunderX bandwidth advantage, Xeon cache advantage)
// emerge from the model.
package machine

import (
	"fmt"
	"time"
)

// CacheSpec describes the last-level cache of a node. The simulator
// models the LLC as a set-associative cache with 64-byte lines shared by
// all cores on the node (matching the ThunderX L2 and, approximately,
// the Xeon L3).
type CacheSpec struct {
	// Levels is the depth of the hierarchy (informational; the cost
	// model folds the private levels into HitFraction).
	Levels int
	// LLCBytes is the capacity of the shared last-level cache.
	LLCBytes int64
	// LineBytes is the cache line size.
	LineBytes int
	// Ways is the set associativity.
	Ways int
	// HitFraction is the fraction of declared accesses filtered out by
	// the private levels before they reach the LLC (deeper private
	// hierarchies filter more).
	HitFraction float64
}

// Sets returns the number of LLC sets.
func (c CacheSpec) Sets() int {
	s := int(c.LLCBytes) / (c.LineBytes * c.Ways)
	if s < 1 {
		s = 1
	}
	return s
}

// MemSpec describes a node's memory system.
type MemSpec struct {
	// BandwidthBytesPerSec is the aggregate DRAM bandwidth shared by all
	// cores of the node.
	BandwidthBytesPerSec float64
	// Latency is the DRAM access latency paid per LLC miss.
	Latency time.Duration
	// Parallelism is the average number of outstanding misses a core
	// can sustain on irregular (pointer-chasing, gather) access
	// patterns; deep out-of-order cores hide more miss latency.
	Parallelism float64
	// StreamParallelism is the effective outstanding-miss depth on
	// sequential streams, where hardware prefetchers hide most of the
	// latency on both core types.
	StreamParallelism float64
}

// NodeSpec describes one node: a set of identical, cache-coherent cores.
type NodeSpec struct {
	// Name identifies the node in reports (e.g. "Xeon").
	Name string
	// Arch is the ISA name (informational; cross-ISA data marshaling is
	// what forces the DSM in the first place).
	Arch string
	// Cores is the number of hardware threads available for OpenMP work.
	Cores int
	// ClockGHz is the sustained all-core clock.
	ClockGHz float64
	// SerialClockGHz is the single-threaded boost clock, used for serial
	// application phases.
	SerialClockGHz float64
	// ScalarIPC is the sustained instructions per cycle for scalar,
	// branchy code.
	ScalarIPC float64
	// VectorOpsPerCycle is the sustained FLOPs per cycle for fully
	// vectorizable code (SIMD width × FMA).
	VectorOpsPerCycle float64
	// Cache is the cache hierarchy.
	Cache CacheSpec
	// LLCHitLatency is the load-to-use latency of an LLC hit on an
	// irregular access (one the private caches and prefetchers cannot
	// shortcut). Out-of-order cores hide it by Mem.Parallelism;
	// in-order cores expose almost all of it — the mechanism that
	// makes gather-heavy kernels crawl on the ThunderX.
	LLCHitLatency time.Duration
	// Mem is the memory system.
	Mem MemSpec
	// DSMHandlerCost is the per-message CPU cost of servicing a DSM
	// protocol request on this node (page-fault handler + driver path).
	DSMHandlerCost time.Duration
}

// CoreOpsPerSecond returns the sustained op throughput of one core for a
// kernel whose vectorizable fraction is vec (0..1). It and the stall
// methods below are on the simulator's per-access path, so they take
// the spec by pointer rather than copying it on every call.
func (n *NodeSpec) CoreOpsPerSecond(vec float64) float64 {
	if vec < 0 {
		vec = 0
	}
	if vec > 1 {
		vec = 1
	}
	perCycle := vec*n.VectorOpsPerCycle + (1-vec)*n.ScalarIPC
	return n.ClockGHz * 1e9 * perCycle
}

// SerialOpsPerSecond is CoreOpsPerSecond at the serial boost clock.
func (n *NodeSpec) SerialOpsPerSecond(vec float64) float64 {
	if n.SerialClockGHz <= 0 {
		return n.CoreOpsPerSecond(vec)
	}
	return n.CoreOpsPerSecond(vec) * n.SerialClockGHz / n.ClockGHz
}

// MissStall returns the exposed stall time for nMisses LLC misses on
// irregular access patterns, accounting for memory-level parallelism.
func (n *NodeSpec) MissStall(nMisses int64) time.Duration {
	return n.stall(nMisses, n.Mem.Parallelism)
}

// GatherHitStall returns the exposed stall for nHits irregular accesses
// that reach the LLC (far gathers), divided by the core's memory-level
// parallelism.
func (n *NodeSpec) GatherHitStall(nHits int64) time.Duration {
	if nHits <= 0 || n.LLCHitLatency <= 0 {
		return 0
	}
	mlp := n.Mem.Parallelism
	if mlp < 1 {
		mlp = 1
	}
	return time.Duration(float64(n.LLCHitLatency) * float64(nHits) / mlp)
}

// StreamStall returns the exposed stall time for nMisses LLC misses on
// sequential streams, where prefetchers hide most latency.
func (n *NodeSpec) StreamStall(nMisses int64) time.Duration {
	return n.stall(nMisses, n.Mem.StreamParallelism)
}

func (n *NodeSpec) stall(nMisses int64, mlp float64) time.Duration {
	if nMisses <= 0 {
		return 0
	}
	if mlp < 1 {
		mlp = 1
	}
	return time.Duration(float64(n.Mem.Latency) * float64(nMisses) / mlp)
}

// maxWays is the highest associativity the LLC model supports: it
// numbers a set's slots with a uint8 (perf.LLC).
const maxWays = 255

// Validate reports a descriptive error for malformed specs.
func (n NodeSpec) Validate() error {
	switch {
	case n.Cores <= 0:
		return fmt.Errorf("machine: node %q has %d cores", n.Name, n.Cores)
	case n.ClockGHz <= 0:
		return fmt.Errorf("machine: node %q has clock %v GHz", n.Name, n.ClockGHz)
	case n.ScalarIPC <= 0 || n.VectorOpsPerCycle <= 0:
		return fmt.Errorf("machine: node %q has non-positive issue rates", n.Name)
	case n.Cache.LLCBytes <= 0 || n.Cache.LineBytes <= 0 || n.Cache.Ways <= 0:
		return fmt.Errorf("machine: node %q has malformed cache spec", n.Name)
	case n.Cache.Ways > maxWays:
		return fmt.Errorf("machine: node %q has %d cache ways, above the model's %d", n.Name, n.Cache.Ways, maxWays)
	case n.Mem.BandwidthBytesPerSec <= 0:
		return fmt.Errorf("machine: node %q has no memory bandwidth", n.Name)
	}
	return nil
}

// ScaleCaches returns a copy of the spec with cache capacity multiplied
// by f. Experiments run scale models: problem footprints and cache
// capacities are shrunk together so footprint/capacity ratios — and
// therefore miss rates and fault rates — are preserved (DESIGN.md §5).
func (n NodeSpec) ScaleCaches(f float64) NodeSpec {
	out := n
	out.Cache.LLCBytes = int64(float64(n.Cache.LLCBytes) * f)
	if out.Cache.LLCBytes < int64(n.Cache.LineBytes*n.Cache.Ways) {
		out.Cache.LLCBytes = int64(n.Cache.LineBytes * n.Cache.Ways)
	}
	return out
}

// XeonE5_2620v4 returns the paper's Intel Xeon node (Table 1): 8 cores /
// 16 hardware threads at 2.1 GHz (3.0 boost), 16 MB three-level cache,
// dual-channel DDR4.
func XeonE5_2620v4() NodeSpec {
	return NodeSpec{
		Name:              "Xeon",
		Arch:              "x86-64",
		Cores:             16,
		ClockGHz:          2.1,
		SerialClockGHz:    3.0,
		ScalarIPC:         2.0,
		VectorOpsPerCycle: 8, // AVX2: 4 doubles × FMA
		Cache: CacheSpec{
			Levels:      3,
			LLCBytes:    16 << 20,
			LineBytes:   64,
			Ways:        16,
			HitFraction: 0.80, // deep private L1/L2 filter most traffic
		},
		Mem: MemSpec{
			BandwidthBytesPerSec: 34e9, // 2 × DDR4-2133
			Latency:              90 * time.Nanosecond,
			Parallelism:          6,  // aggressive out-of-order core
			StreamParallelism:    12, // deep prefetchers
		},
		LLCHitLatency:  18 * time.Nanosecond, // L3, largely hidden by OoO
		DSMHandlerCost: 4 * time.Microsecond,
	}
}

// ThunderX returns the paper's Cavium ThunderX node (Table 1): 96 cores
// (2 × 48) at 2.0 GHz, 32 MB two-level cache, quad-channel memory.
func ThunderX() NodeSpec {
	return NodeSpec{
		Name:              "ThunderX",
		Arch:              "aarch64",
		Cores:             96,
		ClockGHz:          2.0,
		SerialClockGHz:    2.0,
		ScalarIPC:         0.85,
		VectorOpsPerCycle: 2.4, // 128-bit NEON, in-order dual issue
		Cache: CacheSpec{
			Levels:      2,
			LLCBytes:    32 << 20,
			LineBytes:   64,
			Ways:        16,
			HitFraction: 0.55, // only small private L1s in front of L2
		},
		Mem: MemSpec{
			BandwidthBytesPerSec: 68e9, // 4 channels, twice the Xeon
			Latency:              110 * time.Nanosecond,
			Parallelism:          1.0, // in-order core blocks on misses
			StreamParallelism:    8,   // next-line prefetchers stream well
		},
		LLCHitLatency:  35 * time.Nanosecond, // shared L2, fully exposed in-order
		DSMHandlerCost: 6 * time.Microsecond,
	}
}

// Platform is a set of nodes plus the origin node on which applications
// start (the paper's "source node", which runs serial phases).
type Platform struct {
	Nodes  []NodeSpec
	Origin int
}

// Validate checks the platform for structural errors.
func (p Platform) Validate() error {
	if len(p.Nodes) == 0 {
		return fmt.Errorf("machine: platform has no nodes")
	}
	if p.Origin < 0 || p.Origin >= len(p.Nodes) {
		return fmt.Errorf("machine: origin %d out of range [0,%d)", p.Origin, len(p.Nodes))
	}
	for _, n := range p.Nodes {
		if err := n.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// TotalCores returns the number of cores across all nodes.
func (p Platform) TotalCores() int {
	total := 0
	for _, n := range p.Nodes {
		total += n.Cores
	}
	return total
}

// PaperPlatform returns the paper's two-node Xeon + ThunderX testbed
// with the Xeon as origin, with caches scaled by cacheScale (1.0 for
// full-size caches; experiments use the scale-model factor).
func PaperPlatform(cacheScale float64) Platform {
	return Platform{
		Nodes: []NodeSpec{
			XeonE5_2620v4().ScaleCaches(cacheScale),
			ThunderX().ScaleCaches(cacheScale),
		},
		Origin: 0,
	}
}
