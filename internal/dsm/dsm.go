// Package dsm implements the page-granularity distributed shared memory
// the paper's runtime sits on (Popcorn Linux's DSM, Figure 2): a
// multiple-reader / single-writer coherence protocol that replicates
// read pages, invalidates copies on writes, and transfers pages across
// the interconnect on demand. Protocol costs are charged in virtual time
// through the simtime engine: the faulting thread pays the requester-side
// software path inline, queues at the owner node's DSM worker pool, and
// occupies the wire for the page transfer.
//
// Runtime metadata (global barriers, work-pool counters) is allocated in
// DSM regions exactly like application data, so the synchronization
// traffic the paper's thread hierarchy avoids is costed by the same
// protocol.
package dsm

import (
	"fmt"
	"math/rand"
	"time"

	"hetmp/internal/chaos"
	"hetmp/internal/interconnect"
	"hetmp/internal/machine"
	"hetmp/internal/simtime"
	"hetmp/internal/telemetry"
)

// PageSize is the sharing granularity, matching the paper's 4 KB pages.
const PageSize = 4096

// noWriter marks a page in read-shared (or unmapped) state.
const noWriter = -1

// pageState tracks one page's coherence state: either one node holds
// exclusive write access (writer >= 0) or any number of nodes hold
// read-only copies (copyset bitmask).
type pageState struct {
	writer  int8
	copyset uint16
}

// NodeStats aggregates DSM activity observed by one node, mirroring the
// proc file Popcorn Linux exposes and libHetMP polls.
type NodeStats struct {
	// ReadFaults and WriteFaults count remote faults taken by threads
	// on this node.
	ReadFaults  int64
	WriteFaults int64
	// BytesIn is the page payload fetched to this node.
	BytesIn int64
	// Invalidations counts copies invalidated at this node on behalf of
	// remote writers.
	Invalidations int64
	// Stall is the total virtual time this node's threads spent blocked
	// on the protocol.
	Stall time.Duration
}

// Faults returns read + write faults.
func (s NodeStats) Faults() int64 { return s.ReadFaults + s.WriteFaults }

// Space is one coherence domain spanning all nodes of a platform.
type Space struct {
	nodes    []machine.NodeSpec
	proto    interconnect.Spec
	wire     *simtime.Resource
	handlers []*simtime.Resource
	rng      *rand.Rand

	regions  []*Region
	nextAddr int64
	stats    []NodeStats
	tel      *telHooks
	chaos    *chaos.Injector
}

// telHooks caches per-node metric handles so the fault path avoids
// registry lookups; nil when telemetry is disabled.
type telHooks struct {
	readFaults    []*telemetry.Counter
	writeFaults   []*telemetry.Counter
	invalidations []*telemetry.Counter
	bytesIn       []*telemetry.Counter
	stall         []*telemetry.Histogram
}

// SetTelemetry mirrors the per-node NodeStats counters into the given
// telemetry registry (hetmp_dsm_*_total counters and the
// hetmp_dsm_stall_seconds histogram, labeled by node). Passing a nil
// Telemetry disables mirroring. Regions snapshot the handle set when
// they are created, so SetTelemetry also refreshes every existing
// region — installing telemetry after Alloc must not leave those
// regions recording into stale nil handles.
func (s *Space) SetTelemetry(t *telemetry.Telemetry) {
	if !t.Enabled() {
		s.tel = nil
		s.refreshRegionTelemetry()
		return
	}
	m := t.Metrics()
	h := &telHooks{
		readFaults:    make([]*telemetry.Counter, len(s.nodes)),
		writeFaults:   make([]*telemetry.Counter, len(s.nodes)),
		invalidations: make([]*telemetry.Counter, len(s.nodes)),
		bytesIn:       make([]*telemetry.Counter, len(s.nodes)),
		stall:         make([]*telemetry.Histogram, len(s.nodes)),
	}
	for i, n := range s.nodes {
		h.fill(i, m, n.Name)
	}
	s.tel = h
	s.refreshRegionTelemetry()
}

// refreshRegionTelemetry re-snapshots the space's handle set into every
// existing region.
func (s *Space) refreshRegionTelemetry() {
	for _, r := range s.regions {
		r.tel = s.tel
	}
}

// fill resolves node i's handles. Kept out of the wiring loop body so
// the registry lookups are visibly construction-time (hetmplint
// telemetryhandle flags lookups in loop bodies).
func (h *telHooks) fill(i int, m *telemetry.Registry, node string) {
	lbl := telemetry.L("node", node)
	h.readFaults[i] = m.Counter("hetmp_dsm_read_faults_total", lbl)
	h.writeFaults[i] = m.Counter("hetmp_dsm_write_faults_total", lbl)
	h.invalidations[i] = m.Counter("hetmp_dsm_invalidations_total", lbl)
	h.bytesIn[i] = m.Counter("hetmp_dsm_bytes_in_total", lbl)
	h.stall[i] = m.Histogram("hetmp_dsm_stall_seconds", lbl)
}

// SetChaos installs a degradation injector on the fault path: faults
// that land in a link outage stall until service resumes (plus the
// retransmit cost), lossy transports charge a retransmit penalty per
// lost message, and protocol costs are computed from the link state
// effective at fault time. A nil injector (the default) disables all
// of it for one pointer test per fault.
func (s *Space) SetChaos(in *chaos.Injector) { s.chaos = in }

// NewSpace creates a coherence domain for the given nodes and protocol.
// rng (may be nil) supplies interconnect jitter.
func NewSpace(nodes []machine.NodeSpec, proto interconnect.Spec, rng *rand.Rand) (*Space, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("dsm: no nodes")
	}
	if len(nodes) > 16 {
		return nil, fmt.Errorf("dsm: copyset bitmask supports at most 16 nodes, got %d", len(nodes))
	}
	if err := proto.Validate(); err != nil {
		return nil, err
	}
	handlers := make([]*simtime.Resource, len(nodes))
	for i := range handlers {
		handlers[i] = simtime.NewResource(fmt.Sprintf("dsm-worker-%s", nodes[i].Name))
	}
	return &Space{
		nodes:    nodes,
		proto:    proto,
		wire:     simtime.NewResource("wire"),
		handlers: handlers,
		rng:      rng,
		stats:    make([]NodeStats, len(nodes)),
	}, nil
}

// Protocol returns the interconnect spec in use.
func (s *Space) Protocol() interconnect.Spec { return s.proto }

// Stats returns a copy of the per-node statistics.
func (s *Space) Stats() []NodeStats {
	out := make([]NodeStats, len(s.stats))
	copy(out, s.stats)
	return out
}

// TotalFaults sums remote faults across nodes (the counter libHetMP
// reads from the proc file).
func (s *Space) TotalFaults() int64 {
	var total int64
	for _, st := range s.stats {
		total += st.Faults()
	}
	return total
}

// Region is a contiguous range of pages with a home node. Pages start
// exclusively owned by the home node, modelling the serial first-touch
// initialization on the paper's source node.
type Region struct {
	space *Space
	name  string
	home  int
	base  int64 // global byte address of the first page
	size  int64 // requested size in bytes
	pages []pageState
	// tel is the telemetry handle set snapshotted at creation (and
	// refreshed by SetTelemetry); fault paths record through it so the
	// lookups are construction-time.
	tel *telHooks
}

// Alloc creates a region of at least size bytes homed at node home.
func (s *Space) Alloc(name string, size int64, home int) (*Region, error) {
	if size <= 0 {
		return nil, fmt.Errorf("dsm: region %q has size %d", name, size)
	}
	if home < 0 || home >= len(s.nodes) {
		return nil, fmt.Errorf("dsm: region %q home %d out of range", name, home)
	}
	numPages := (size + PageSize - 1) / PageSize
	pages := make([]pageState, numPages)
	for i := range pages {
		pages[i] = pageState{writer: int8(home), copyset: 1 << home}
	}
	r := &Region{
		space: s,
		name:  name,
		home:  home,
		base:  s.nextAddr,
		size:  size,
		pages: pages,
		tel:   s.tel,
	}
	s.nextAddr += numPages * PageSize
	s.regions = append(s.regions, r)
	return r, nil
}

// Name returns the region's debug name.
func (r *Region) Name() string { return r.name }

// BatchEnabled reports whether the space's protocol coalesces
// contiguous faulting runs (Spec.BatchFaults).
func (r *Region) BatchEnabled() bool { return r.space.proto.BatchFaults }

// Size returns the requested size in bytes.
func (r *Region) Size() int64 { return r.size }

// Pages returns the number of pages backing the region.
func (r *Region) Pages() int { return len(r.pages) }

// BaseAddr returns the region's global byte address (used by the cache
// model to place regions in distinct address ranges).
func (r *Region) BaseAddr() int64 { return r.base }

// Home returns the region's home node.
func (r *Region) Home() int { return r.home }

// AccessResult reports the protocol activity caused by one access.
type AccessResult struct {
	Faults int64
	Stall  time.Duration
}

// Access performs a read (write=false) or write (write=true) of
// [offset, offset+length) by a thread of node running as proc p. It
// advances p through any protocol costs and returns the fault count and
// stall time incurred. Out-of-range accesses panic: they indicate a
// kernel declaration bug.
func (r *Region) Access(p *simtime.Proc, node int, offset, length int64, write bool) AccessResult {
	if length <= 0 {
		return AccessResult{}
	}
	if offset < 0 || offset+length > int64(len(r.pages))*PageSize {
		panic(fmt.Sprintf("dsm: access [%d,%d) out of range of region %q (%d bytes)",
			offset, offset+length, r.name, int64(len(r.pages))*PageSize))
	}
	return r.accessRange(p, node, offset/PageSize, (offset+length-1)/PageSize, write)
}

// accessRange run-length-scans pages [first, last]: contiguous
// already-satisfied pages are skipped in one pass with no protocol
// call and no time advance (the dominant case for settled regions),
// and faulting pages either fault one at a time (the paper's per-page
// protocol, bit-identical to the original loop) or — when the spec's
// BatchFaults knob is on — coalesce contiguous runs in identical
// coherence state into one batched transaction.
//
// Page states are re-read after every protocol transaction: a fault
// advances virtual time and may yield to procs that change later
// pages. Skipping satisfied pages never yields, so the states read
// during a skip run cannot go stale.
func (r *Region) accessRange(p *simtime.Proc, node int, first, last int64, write bool) AccessResult {
	bit := uint16(1) << node
	batch := r.space.proto.BatchFaults
	var faults int64
	var stall time.Duration
	for pg := first; pg <= last; {
		st := r.pages[pg]
		if st.writer == int8(node) || (!write && st.copyset&bit != 0) {
			pg++
			continue
		}
		if !batch {
			res := r.faultPage(p, node, pg, write)
			faults += res.Faults
			stall += res.Stall
			pg++
			continue
		}
		run := pg + 1
		for run <= last && r.pages[run] == st {
			run++
		}
		res := r.accessRun(p, node, pg, run-pg, write)
		faults += res.Faults
		stall += res.Stall
		pg = run
	}
	return AccessResult{Faults: faults, Stall: stall}
}

// AccessPages performs a sequence of single-page accesses given by page
// indices — the entry point for strided and gather loops. Consecutive
// duplicate indices are coalesced (they hit the same page). Satisfied
// pages are skipped with no protocol call; with BatchFaults enabled,
// consecutively increasing faulting indices in identical coherence
// state coalesce into one batched transaction, exactly as Access does
// for contiguous byte ranges.
func (r *Region) AccessPages(p *simtime.Proc, node int, pages []int64, write bool) AccessResult {
	bit := uint16(1) << node
	batch := r.space.proto.BatchFaults
	n := int64(len(r.pages))

	// All-hit early return: a settled region satisfies every gather
	// access, so scan for the first faulting page before entering the
	// fault loop. The scan is side-effect-free and checks bounds in
	// order, so out-of-range panics fire exactly where the loop would
	// have fired them (any page before the panic was satisfied and
	// would not have faulted).
	allHit := true
	for _, pg := range pages {
		if pg < 0 || pg >= n {
			panic(fmt.Sprintf("dsm: page %d out of range of region %q", pg, r.name))
		}
		st := r.pages[pg]
		if st.writer != int8(node) && (write || st.copyset&bit == 0) {
			allHit = false
			break
		}
	}
	if allHit {
		return AccessResult{}
	}

	var faults int64
	var stall time.Duration
	prev := int64(-1)
	for i := 0; i < len(pages); {
		pg := pages[i]
		if pg < 0 || pg >= n {
			panic(fmt.Sprintf("dsm: page %d out of range of region %q", pg, r.name))
		}
		if pg == prev {
			i++
			continue
		}
		st := r.pages[pg]
		if st.writer == int8(node) || (!write && st.copyset&bit != 0) {
			prev = pg
			i++
			continue
		}
		if !batch {
			res := r.faultPage(p, node, pg, write)
			faults += res.Faults
			stall += res.Stall
			prev = pg
			i++
			continue
		}
		// Extend the batch over consecutively increasing indices whose
		// pages share st's coherence state (duplicates of the last page
		// in the run are absorbed).
		j := i + 1
		next := pg + 1
		for j < len(pages) {
			q := pages[j]
			if q == next-1 {
				j++
				continue
			}
			if q != next || q >= n || r.pages[q] != st {
				break
			}
			next++
			j++
		}
		res := r.accessRun(p, node, pg, next-pg, write)
		faults += res.Faults
		stall += res.Stall
		prev = next - 1
		i = j
	}
	return AccessResult{Faults: faults, Stall: stall}
}

// AccessPage performs a single-page access identified by page index.
func (r *Region) AccessPage(p *simtime.Proc, node int, page int64, write bool) AccessResult {
	if page < 0 || page >= int64(len(r.pages)) {
		panic(fmt.Sprintf("dsm: page %d out of range of region %q", page, r.name))
	}
	return r.accessPage(p, node, page, write)
}

func (a AccessResult) add(b AccessResult) AccessResult {
	return AccessResult{Faults: a.Faults + b.Faults, Stall: a.Stall + b.Stall}
}

// accessPage checks page satisfaction and runs the MRSW protocol for
// one page.
func (r *Region) accessPage(p *simtime.Proc, node int, pg int64, write bool) AccessResult {
	st := r.pages[pg]
	bit := uint16(1) << node
	if write {
		if st.writer == int8(node) {
			return AccessResult{}
		}
	} else {
		if st.writer == int8(node) || st.copyset&bit != 0 {
			return AccessResult{}
		}
	}
	return r.faultPage(p, node, pg, write)
}

// faultPage runs the MRSW protocol for one remote-faulting page (the
// caller has established the page is not satisfied for node).
func (r *Region) faultPage(p *simtime.Proc, node int, pg int64, write bool) AccessResult {
	s := r.space
	st := &r.pages[pg]
	bit := uint16(1) << node

	// Remote fault. Find the node to source the page from: the writer
	// if one exists, otherwise any copy holder (lowest index), falling
	// back to the home node.
	owner := r.sourceNode(st)
	start := p.Now()

	// Chaos fault path: a fault into a link outage blocks until the
	// link is back and pays the retransmit cost; a lossy transport
	// charges a retransmit penalty. Both stalls land inside the
	// [start, Now) window, so they count as protocol stall — exactly
	// how a retransmitted page request looks to the faulting thread.
	proto := s.proto
	if ch := s.chaos; ch != nil {
		if resume, retransmit, down := ch.OutageAt(p.Now()); down {
			p.AdvanceTo(resume)
			p.Advance(retransmit)
		}
		if penalty, lost := ch.FaultLoss(); lost {
			p.Advance(penalty)
		}
		// Protocol costs reflect the link state at (post-outage)
		// fault-service time.
		proto = proto.EffectiveAt(p.Now())
	}

	// Transfer the page data unless the requester already holds a valid
	// read copy (a write upgrade revokes other copies but moves no
	// data).
	needsData := st.copyset&bit == 0
	if needsData {
		cost := proto.PageFault(s.nodes[node], s.nodes[owner], PageSize, s.rng)
		// Requester-side software path, paid inline.
		p.Advance(cost.Inline)
		// Owner's DSM worker pool services the request (queues under load).
		s.handlers[owner].Use(p, proto.EffectiveOwnerService(cost.Owner))
		// The wire carries the page.
		s.wire.Use(p, cost.Wire)
		s.stats[node].BytesIn += PageSize
	}

	if write {
		// Invalidate every other copy. The transfer source's copy is
		// revoked by the transfer request itself; the remaining holders
		// get explicit invalidation messages.
		for other := range s.nodes {
			if other == node {
				continue
			}
			otherBit := uint16(1) << other
			if st.copyset&otherBit == 0 && st.writer != int8(other) {
				continue
			}
			if needsData && other == owner {
				r.noteInvalidation(other)
				continue
			}
			inv := proto.ControlMessage(s.nodes[node], s.nodes[other])
			p.Advance(inv.Inline)
			s.handlers[other].Use(p, proto.EffectiveOwnerService(inv.Owner))
			r.noteInvalidation(other)
		}
		st.writer = int8(node)
		st.copyset = bit
		s.stats[node].WriteFaults++
	} else {
		// Downgrade a writer to a reader and replicate.
		if st.writer != noWriter {
			st.copyset |= uint16(1) << st.writer
			st.writer = noWriter
		}
		st.copyset |= bit
		s.stats[node].ReadFaults++
	}

	stall := p.Now() - start
	s.stats[node].Stall += stall
	if h := r.tel; h != nil {
		if write {
			h.writeFaults[node].Inc()
		} else {
			h.readFaults[node].Inc()
		}
		if needsData {
			h.bytesIn[node].Add(PageSize)
		}
		h.stall[node].Observe(stall)
	}
	return AccessResult{Faults: 1, Stall: stall}
}

// accessRun services k contiguous pages starting at pg that all fault
// in the identical coherence state st — one batched protocol
// transaction modelling Popcorn-style request batching: the requester
// pays one inline software path, the owner's worker pool services one
// (k-page) request, and the wire is occupied for the full k-page
// payload, so bytes moved are conserved while per-page software and
// per-message control overheads are paid once per run. Page-state
// transitions, fault counts, invalidation counts and bytes are
// identical to k per-page faults; only the timing differs. Reached
// only with Spec.BatchFaults enabled.
func (r *Region) accessRun(p *simtime.Proc, node int, pg, k int64, write bool) AccessResult {
	s := r.space
	st := r.pages[pg] // representative state, identical across the run
	bit := uint16(1) << node
	owner := r.sourceNode(&st)
	start := p.Now()

	// Chaos is drawn once per transaction: a batched request is one
	// message exchange, so it sees one outage/loss opportunity.
	proto := s.proto
	if ch := s.chaos; ch != nil {
		if resume, retransmit, down := ch.OutageAt(p.Now()); down {
			p.AdvanceTo(resume)
			p.Advance(retransmit)
		}
		if penalty, lost := ch.FaultLoss(); lost {
			p.Advance(penalty)
		}
		proto = proto.EffectiveAt(p.Now())
	}

	needsData := st.copyset&bit == 0
	if needsData {
		cost := proto.PageFault(s.nodes[node], s.nodes[owner], int(k)*PageSize, s.rng)
		p.Advance(cost.Inline)
		s.handlers[owner].Use(p, proto.EffectiveOwnerService(cost.Owner))
		s.wire.Use(p, cost.Wire)
		s.stats[node].BytesIn += k * PageSize
	}

	if write {
		// One invalidation message per remote holder covers the whole
		// run; each invalidates k copies.
		for other := range s.nodes {
			if other == node {
				continue
			}
			otherBit := uint16(1) << other
			if st.copyset&otherBit == 0 && st.writer != int8(other) {
				continue
			}
			if needsData && other == owner {
				r.noteInvalidations(other, k)
				continue
			}
			inv := proto.ControlMessage(s.nodes[node], s.nodes[other])
			p.Advance(inv.Inline)
			s.handlers[other].Use(p, proto.EffectiveOwnerService(inv.Owner))
			r.noteInvalidations(other, k)
		}
		for i := pg; i < pg+k; i++ {
			r.pages[i] = pageState{writer: int8(node), copyset: bit}
		}
		s.stats[node].WriteFaults += k
	} else {
		newSet := st.copyset | bit
		if st.writer != noWriter {
			newSet |= uint16(1) << st.writer
		}
		for i := pg; i < pg+k; i++ {
			r.pages[i] = pageState{writer: noWriter, copyset: newSet}
		}
		s.stats[node].ReadFaults += k
	}

	stall := p.Now() - start
	s.stats[node].Stall += stall
	if h := r.tel; h != nil {
		if write {
			h.writeFaults[node].Add(k)
		} else {
			h.readFaults[node].Add(k)
		}
		if needsData {
			h.bytesIn[node].Add(k * PageSize)
		}
		h.stall[node].Observe(stall)
	}
	return AccessResult{Faults: k, Stall: stall}
}

// noteInvalidation bumps both the NodeStats counter and its telemetry
// mirror for one invalidated copy at node.
func (r *Region) noteInvalidation(node int) {
	r.space.stats[node].Invalidations++
	if h := r.tel; h != nil {
		h.invalidations[node].Inc()
	}
}

// noteInvalidations records k copies invalidated at node by one batched
// write transaction.
func (r *Region) noteInvalidations(node int, k int64) {
	r.space.stats[node].Invalidations += k
	if h := r.tel; h != nil {
		h.invalidations[node].Add(k)
	}
}

// sourceNode picks the node currently holding a valid copy.
func (r *Region) sourceNode(st *pageState) int {
	if st.writer != noWriter {
		return int(st.writer)
	}
	for n := 0; n < len(r.space.nodes); n++ {
		if st.copyset&(1<<n) != 0 {
			return n
		}
	}
	return r.home
}

// PageOwner reports the coherence state of page pg for tests and
// diagnostics: the exclusive writer (or -1) and the copyset bitmask.
func (r *Region) PageOwner(pg int64) (writer int, copyset uint16) {
	st := r.pages[pg]
	return int(st.writer), st.copyset
}

// SettleAt moves every page of the region to exclusive ownership by
// node without charging protocol costs. It models explicit first-touch
// re-initialization (the microbenchmark's control loop does this on the
// source node between trials).
func (r *Region) SettleAt(node int) {
	for i := range r.pages {
		r.pages[i] = pageState{writer: int8(node), copyset: 1 << node}
	}
}

// CheckInvariants verifies protocol invariants for every page of every
// region in the space. It returns an error describing the first
// violation found. Used by tests (including property-based tests).
func (s *Space) CheckInvariants() error {
	for _, r := range s.regions {
		for i, st := range r.pages {
			if st.writer != noWriter {
				// Exclusive: copyset must be exactly the writer.
				if st.copyset != 1<<uint16(st.writer) {
					return fmt.Errorf("dsm: region %q page %d: writer %d but copyset %016b",
						r.name, i, st.writer, st.copyset)
				}
				if int(st.writer) >= len(s.nodes) {
					return fmt.Errorf("dsm: region %q page %d: writer %d out of range", r.name, i, st.writer)
				}
			} else {
				// Shared: at least one copy must exist.
				if st.copyset == 0 {
					return fmt.Errorf("dsm: region %q page %d: unmapped (no writer, empty copyset)", r.name, i)
				}
				if st.copyset >= 1<<uint16(len(s.nodes)) {
					return fmt.Errorf("dsm: region %q page %d: copyset %016b mentions unknown node", r.name, i, st.copyset)
				}
			}
		}
	}
	return nil
}
