package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"hetmp/internal/chaos"
	"hetmp/internal/dsm"
	"hetmp/internal/interconnect"
	"hetmp/internal/machine"
	"hetmp/internal/perf"
	"hetmp/internal/simtime"
	"hetmp/internal/telemetry"
)

// SimConfig configures the simulated cluster backend.
type SimConfig struct {
	// Platform describes the nodes. Required.
	Platform machine.Platform
	// Protocol is the interconnect protocol. Required for multi-node
	// platforms.
	Protocol interconnect.Spec
	// Seed drives the deterministic jitter source.
	Seed int64
	// MigrationCost is the cost of migrating a thread to another node
	// (stack transformation + migration syscall). Defaults to 200 µs.
	MigrationCost time.Duration
	// Jitter enables the protocol's latency jitter.
	Jitter bool
	// Telemetry, when non-nil, receives interconnect latency
	// histograms and per-node DSM counters from this cluster (the
	// runtime layers its own spans and metrics on top via
	// core.Options.Telemetry).
	Telemetry *telemetry.Telemetry
	// Chaos, when non-nil, injects the configured degradation
	// schedule into this cluster: link factors and outages on the DSM
	// fault path, and per-node straggle/freeze windows on compute.
	// Construct one injector per Sim — sharing interleaves loss draws
	// across runs and breaks seed reproducibility.
	Chaos *chaos.Injector
}

// Sim is the virtual-time simulated cluster. It may execute exactly one
// application (one Run call); experiments construct a fresh Sim per
// configuration, which also resets DSM and cache state.
type Sim struct {
	cfg    SimConfig
	engine *simtime.Engine
	space  *dsm.Space
	llcs   []*perf.LLC // nil once Run has released them
	membw  []*simtime.Resource
	ran    bool
	closed time.Duration

	// llcStats holds each node's cache (accesses, misses) as Run left
	// them, once the caches themselves have gone back to perf's pool.
	llcStats [][2]int64
}

var _ Cluster = (*Sim)(nil)

// NewSim validates the configuration and builds the simulated cluster.
func NewSim(cfg SimConfig) (*Sim, error) {
	if err := cfg.Platform.Validate(); err != nil {
		return nil, err
	}
	if cfg.MigrationCost == 0 {
		cfg.MigrationCost = 200 * time.Microsecond
	}
	if cfg.Protocol.Name == "" {
		cfg.Protocol = interconnect.RDMA56()
	}
	cfg.Protocol = cfg.Protocol.WithTelemetry(cfg.Telemetry)
	eng := simtime.NewEngine(cfg.Seed)
	var rng *rand.Rand
	if cfg.Jitter {
		rng = eng.Rand()
	}
	space, err := dsm.NewSpace(cfg.Platform.Nodes, cfg.Protocol, rng)
	if err != nil {
		return nil, err
	}
	space.SetTelemetry(cfg.Telemetry)
	space.SetChaos(cfg.Chaos)
	if cfg.Chaos != nil {
		names := make([]string, len(cfg.Platform.Nodes))
		for i, n := range cfg.Platform.Nodes {
			names[i] = n.Name
		}
		cfg.Chaos.SetTelemetry(cfg.Telemetry, names)
	}
	llcs := make([]*perf.LLC, len(cfg.Platform.Nodes))
	membw := make([]*simtime.Resource, len(cfg.Platform.Nodes))
	for i, n := range cfg.Platform.Nodes {
		llcs[i] = perf.NewLLC(n.Cache)
		membw[i] = simtime.NewResource(fmt.Sprintf("mem-%s", n.Name))
	}
	return &Sim{
		cfg:    cfg,
		engine: eng,
		space:  space,
		llcs:   llcs,
		membw:  membw,
	}, nil
}

// NodeSpecs implements Cluster.
func (c *Sim) NodeSpecs() []machine.NodeSpec {
	out := make([]machine.NodeSpec, len(c.cfg.Platform.Nodes))
	copy(out, c.cfg.Platform.Nodes)
	return out
}

// Origin implements Cluster.
func (c *Sim) Origin() int { return c.cfg.Platform.Origin }

// simRegion is the sim backend's region state.
type simRegion struct {
	dreg *dsm.Region
}

// Alloc implements Cluster. Allocation failures indicate programming
// errors (bad sizes or homes) and panic.
func (c *Sim) Alloc(name string, size int64, home int) *Region {
	dreg, err := c.space.Alloc(name, size, home)
	if err != nil {
		panic(err)
	}
	return &Region{name: name, size: size, sim: &simRegion{dreg: dreg}}
}

// NewCell implements Cluster.
func (c *Sim) NewCell(name string, home int) Cell {
	dreg, err := c.space.Alloc("cell:"+name, 8, home)
	if err != nil {
		panic(err)
	}
	return &simCell{c: c, dreg: dreg}
}

// NewBarrier implements Cluster.
func (c *Sim) NewBarrier(parties int) Barrier {
	return (*simBarrier)(simtime.NewBarrier(parties))
}

// NewChain implements Cluster: a simtime chain, so the engine walks a
// waiting thread through the links without resuming it in between.
func (c *Sim) NewChain(links ...Link) Chain {
	sl := make([]simtime.Link, len(links))
	for i, l := range links {
		sl[i].Stop = l.Stop
		if l.Barrier != nil {
			b, ok := l.Barrier.(*simBarrier)
			if !ok {
				panic("cluster: chaining a non-sim barrier on a sim cluster")
			}
			sl[i].Barrier = (*simtime.Barrier)(b)
		}
	}
	return (*simChain)(simtime.NewChain(sl...))
}

// Run implements Cluster.
func (c *Sim) Run(master func(Env)) error {
	if c.ran {
		return errors.New("cluster: Sim.Run called twice; construct a fresh Sim per application")
	}
	c.ran = true
	c.engine.Go("master", 0, func(p *simtime.Proc) {
		master(&simEnv{c: c, node: c.Origin(), proc: p})
	})
	err := c.engine.Run()
	// No proc can touch a cache once Run has returned, so the tag
	// arrays go back for the next Sim.
	c.llcStats = make([][2]int64, len(c.llcs))
	for i, llc := range c.llcs {
		c.llcStats[i][0], c.llcStats[i][1] = llc.Stats()
		llc.Release()
	}
	c.llcs = nil
	if err != nil {
		return err
	}
	c.closed = c.engine.MaxNow()
	return nil
}

// Elapsed implements Cluster.
func (c *Sim) Elapsed() time.Duration { return c.closed }

// DSMFaults implements Cluster.
func (c *Sim) DSMFaults() int64 { return c.space.TotalFaults() }

// LLCStats exposes per-node cache accesses and misses.
func (c *Sim) LLCStats(node int) (accesses, misses int64) {
	if c.llcs == nil {
		return c.llcStats[node][0], c.llcStats[node][1]
	}
	return c.llcs[node].Stats()
}

// simEnv is one simulated thread.
type simEnv struct {
	c    *Sim
	node int
	proc *simtime.Proc
	ctr  perf.Counters

	// pageScratch is the reusable page-index buffer accessAt hands to
	// dsm.AccessPages, so gather loops allocate nothing per call.
	pageScratch []int64
}

var _ Env = (*simEnv)(nil)

func (e *simEnv) Node() int          { return e.node }
func (e *simEnv) Now() time.Duration { return e.proc.Now() }

func (e *simEnv) spec() *machine.NodeSpec { return &e.c.cfg.Platform.Nodes[e.node] }

func (e *simEnv) compute(ops, rate float64) {
	if ops <= 0 {
		return
	}
	d := time.Duration(ops / rate * float64(time.Second))
	if ch := e.c.cfg.Chaos; ch != nil {
		// Straggle/freeze windows stretch the burst in virtual time;
		// Busy keeps the undegraded duration (the work is the same,
		// the node is just slower), so utilization reports show the
		// slowdown as lost time rather than inflated work.
		e.ctr.Instructions += int64(ops)
		e.ctr.Busy += d
		e.proc.Advance(ch.ComputeTime(e.node, e.proc.Now(), d))
		return
	}
	e.ctr.Instructions += int64(ops)
	e.ctr.Busy += d
	e.proc.Advance(d)
}

// Compute implements Env.
func (e *simEnv) Compute(ops, vec float64) {
	e.compute(ops, e.spec().CoreOpsPerSecond(vec))
}

// ComputeSerial implements Env.
func (e *simEnv) ComputeSerial(ops, vec float64) {
	e.compute(ops, e.spec().SerialOpsPerSecond(vec))
}

// access runs the DSM protocol and the cache model for one declared
// range.
func (e *simEnv) access(r *Region, off, length int64, write bool) {
	if length <= 0 {
		return
	}
	if r.sim == nil {
		panic(fmt.Sprintf("cluster: region %q does not belong to a simulated cluster", r.name))
	}
	res := r.sim.dreg.Access(e.proc, e.node, off, length, write)
	e.ctr.RemoteFaults += res.Faults
	e.ctr.FaultStall += res.Stall

	lines, misses := e.c.llcs[e.node].AccessRange(r.sim.dreg.BaseAddr()+off, length)
	e.ctr.LLCAccesses += lines
	e.ctr.LLCMisses += misses
	e.memStall(misses, true /* sequential stream */)
}

// memStall charges DRAM latency and bandwidth for a batch of misses.
// The bandwidth channel is a shared FIFO resource (so many-core nodes
// saturate under miss-heavy load); exposed latency beyond the bandwidth
// service is added on top, approximating max(latency, occupancy).
// Sequential streams benefit from prefetching (higher effective MLP)
// than irregular gathers.
func (e *simEnv) memStall(misses int64, stream bool) {
	if misses <= 0 {
		return
	}
	spec := e.spec()
	service := time.Duration(float64(misses) * 64 / spec.Mem.BandwidthBytesPerSec * float64(time.Second))
	before := e.proc.Now()
	e.c.membw[e.node].Use(e.proc, service)
	spent := e.proc.Now() - before
	stall := spec.MissStall(misses)
	if stream {
		stall = spec.StreamStall(misses)
	}
	if extra := stall - spent; extra > 0 {
		e.proc.Advance(extra)
	}
}

// Load implements Env.
func (e *simEnv) Load(r *Region, off, length int64) { e.access(r, off, length, false) }

// Store implements Env.
func (e *simEnv) Store(r *Region, off, length int64) { e.access(r, off, length, true) }

// LoadAt implements Env.
func (e *simEnv) LoadAt(r *Region, offsets []int64, width int) { e.accessAt(r, offsets, width, false) }

// StoreAt implements Env.
func (e *simEnv) StoreAt(r *Region, offsets []int64, width int) { e.accessAt(r, offsets, width, true) }

// accessAt declares irregular accesses, deduplicating consecutive
// offsets that land on the same page/line (indirection arrays are often
// locally sorted, e.g. CSR column indices). The DSM sees every page;
// the cache model uses set sampling (see perf.SampledRange).
func (e *simEnv) accessAt(r *Region, offsets []int64, width int, write bool) {
	if len(offsets) == 0 {
		return
	}
	if r.sim == nil {
		panic(fmt.Sprintf("cluster: region %q does not belong to a simulated cluster", r.name))
	}
	dreg := r.sim.dreg
	llc := e.c.llcs[e.node]
	perPage := !dreg.BatchEnabled()

	if !perPage {
		// Batched protocol: collect the page-index sequence (same
		// consecutive dedup and end-page straddle coverage as the
		// per-page loop) and run the whole DSM protocol in one
		// AccessPages call so contiguous faulting runs coalesce.
		// This hoists the protocol ahead of the (time-free) cache
		// pass, which can shift how concurrent procs interleave in
		// the shared LLC — acceptable here because BatchFaults
		// already opts into a coarser timing model; the default
		// path below preserves the original interleave exactly.
		pages := e.pageScratch[:0]
		lastPage := int64(-1)
		for _, off := range offsets {
			page := off / dsm.PageSize
			if page != lastPage {
				pages = append(pages, page)
				lastPage = page
			}
			if endPage := (off + int64(width) - 1) / dsm.PageSize; endPage != page {
				pages = append(pages, endPage)
				lastPage = endPage
			}
		}
		e.pageScratch = pages
		res := dreg.AccessPages(e.proc, e.node, pages, write)
		e.ctr.RemoteFaults += res.Faults
		e.ctr.FaultStall += res.Stall
	}

	lastPage := int64(-1)
	lastLine := int64(-1)
	prevOff := int64(-1 << 40)
	var misses, farGathers int64
	for _, off := range offsets {
		// A "far" gather jumps beyond the private caches' reach and
		// pays the LLC load-to-use latency even on a hit; nearby
		// gathers (unstructured meshes with locality) stay in L1.
		if delta := off - prevOff; delta > 2048 || delta < -2048 {
			farGathers++
		}
		prevOff = off
		if perPage {
			page := off / dsm.PageSize
			if page != lastPage {
				res := dreg.AccessPage(e.proc, e.node, page, write)
				e.ctr.RemoteFaults += res.Faults
				e.ctr.FaultStall += res.Stall
				lastPage = page
			}
			// Cover the end page if the element straddles one.
			endPage := (off + int64(width) - 1) / dsm.PageSize
			if endPage != page {
				res := dreg.AccessPage(e.proc, e.node, endPage, write)
				e.ctr.RemoteFaults += res.Faults
				e.ctr.FaultStall += res.Stall
				lastPage = endPage
			}
		}
		line := (dreg.BaseAddr() + off) >> 6
		if line != lastLine {
			lines, m := llc.SampledRange(dreg.BaseAddr()+off, int64(width))
			e.ctr.LLCAccesses += lines
			e.ctr.LLCMisses += m
			misses += m
			lastLine = line
		}
	}
	e.memStall(misses, false /* irregular gather */)
	if stall := e.spec().GatherHitStall(farGathers - misses); stall > 0 {
		e.proc.Advance(stall)
	}
}

// Counters implements Env.
func (e *simEnv) Counters() perf.Counters { return e.ctr }

// Spawn implements Env.
func (e *simEnv) Spawn(node int, name string, fn func(Env)) Handle {
	if node < 0 || node >= len(e.c.cfg.Platform.Nodes) {
		panic(fmt.Sprintf("cluster: spawn on unknown node %d", node))
	}
	start := e.proc.Now()
	if node != e.node {
		// Popcorn spawns threads on the origin node and migrates them:
		// pay the stack-transformation + migration cost.
		start += e.c.cfg.MigrationCost
	}
	child := e.c.engine.Go(name, start, func(p *simtime.Proc) {
		fn(&simEnv{c: e.c, node: node, proc: p})
	})
	return &simHandle{proc: child}
}

type simHandle struct{ proc *simtime.Proc }

// Join implements Handle.
func (h *simHandle) Join(from Env) {
	se, ok := from.(*simEnv)
	if !ok {
		panic("cluster: joining a sim thread from a non-sim Env")
	}
	se.proc.Join(h.proc)
}

type simBarrier simtime.Barrier

// Wait implements Barrier.
func (b *simBarrier) Wait(e Env) bool {
	return (*simtime.Barrier)(b).Wait(simProc(e))
}

type simChain simtime.Chain

// Wait implements Chain.
func (c *simChain) Wait(e Env, from int) int {
	return (*simtime.Chain)(c).Wait(simProc(e), from)
}

// simProc is the proc behind a sim thread's Env.
func simProc(e Env) *simtime.Proc {
	se, ok := e.(*simEnv)
	if !ok {
		panic("cluster: waiting on a sim barrier from a non-sim Env")
	}
	return se.proc
}

// simCell is a DSM-backed shared word. Operations pay coherence costs;
// the value update itself is atomic because the engine serializes
// execution and no virtual time passes between the protocol completing
// and the update.
type simCell struct {
	c    *Sim
	dreg *dsm.Region
	v    int64
}

func (s *simCell) env(e Env) *simEnv {
	se, ok := e.(*simEnv)
	if !ok {
		panic("cluster: sim cell used from a non-sim Env")
	}
	return se
}

func (s *simCell) charge(e *simEnv, write bool) {
	res := s.dreg.Access(e.proc, e.node, 0, 8, write)
	e.ctr.RemoteFaults += res.Faults
	e.ctr.FaultStall += res.Stall
}

// Load implements Cell.
func (s *simCell) Load(e Env) int64 {
	se := s.env(e)
	s.charge(se, false)
	return s.v
}

// Store implements Cell.
func (s *simCell) Store(e Env, v int64) {
	se := s.env(e)
	s.charge(se, true)
	s.v = v
}

// Add implements Cell.
func (s *simCell) Add(e Env, delta int64) int64 {
	se := s.env(e)
	s.charge(se, true)
	s.v += delta
	return s.v
}

// CompareAndSwap implements Cell.
func (s *simCell) CompareAndSwap(e Env, old, new int64) bool {
	se := s.env(e)
	s.charge(se, true)
	if s.v != old {
		return false
	}
	s.v = new
	return true
}
