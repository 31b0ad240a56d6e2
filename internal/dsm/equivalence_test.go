package dsm_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"hetmp/internal/chaos"
	"hetmp/internal/dsm"
	"hetmp/internal/interconnect"
	"hetmp/internal/machine"
	"hetmp/internal/simtime"
)

// The equivalence regression suite pins the run-length-scan access
// path to the original strictly-per-page protocol: with BatchFaults
// off, Region.Access and Region.AccessPages must be bit-identical —
// same AccessResult totals, same page states, same NodeStats, same
// engine MaxNow — to a reference that replays the trace one
// AccessPage at a time, across randomized traces and every chaos
// profile. With BatchFaults on, the protocol *state* outcomes (page
// ownership, fault counts, invalidations, bytes moved) must still be
// identical; only the timing is allowed to differ.

// traceOp is one access by one node's proc.
type traceOp struct {
	kind  int // 0 = contiguous Access, 1 = AccessPages gather
	off   int64
	len   int64
	pages []int64
	write bool
	delay time.Duration // Advance before the op, to vary interleaving
}

const eqRegionPages = 64

// genTrace builds per-node op sequences from a seeded rng.
func genTrace(seed int64, nodes, opsPerNode int) [][]traceOp {
	rng := rand.New(rand.NewSource(seed))
	trace := make([][]traceOp, nodes)
	for n := range trace {
		ops := make([]traceOp, opsPerNode)
		for i := range ops {
			op := traceOp{
				write: rng.Intn(3) == 0,
				delay: time.Duration(rng.Intn(30)) * time.Microsecond,
			}
			if rng.Intn(2) == 0 {
				op.kind = 0
				op.off = rng.Int63n(eqRegionPages*dsm.PageSize - 1)
				maxLen := eqRegionPages*dsm.PageSize - op.off
				op.len = 1 + rng.Int63n(min64(maxLen, 9*dsm.PageSize))
			} else {
				op.kind = 1
				// A loosely sorted walk with duplicates and jumps, like
				// CSR column indices.
				count := 1 + rng.Intn(24)
				pg := rng.Int63n(eqRegionPages)
				for j := 0; j < count; j++ {
					op.pages = append(op.pages, pg)
					switch rng.Intn(4) {
					case 0: // stay (duplicate)
					case 1:
						pg++
					case 2:
						pg += int64(1 + rng.Intn(5))
					case 3:
						pg = rng.Int63n(eqRegionPages)
					}
					if pg >= eqRegionPages {
						pg = rng.Int63n(eqRegionPages)
					}
				}
			}
			ops[i] = op
		}
		trace[n] = ops
	}
	return trace
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// traceOut captures everything the scan path must reproduce.
type traceOut struct {
	totals  []dsm.AccessResult // per node, summed over its ops
	stats   []dsm.NodeStats
	writers []int
	copies  []uint16
	maxNow  time.Duration
}

// replayMode selects how the trace is executed.
type replayMode int

const (
	modeScan      replayMode = iota // Region.Access / Region.AccessPages
	modeReference                   // strictly per-page AccessPage loop
)

// replay executes the trace with one proc per node (concurrent mode):
// scheduling interleaves wherever the protocol advances virtual time.
func replay(t *testing.T, trace [][]traceOp, mode replayMode, batch bool, chaosProfile string, seed int64) traceOut {
	return replayWith(t, trace, mode, batch, chaosProfile, seed, false)
}

// replaySequential executes all nodes' ops from a single proc in
// round-robin order, so the access order is fixed regardless of how
// much virtual time each transaction costs. This isolates protocol
// *state* outcomes from timing: the batched path must produce the
// same states and counts as per-page even though its stalls differ.
func replaySequential(t *testing.T, trace [][]traceOp, mode replayMode, batch bool, chaosProfile string, seed int64) traceOut {
	return replayWith(t, trace, mode, batch, chaosProfile, seed, true)
}

func replayWith(t *testing.T, trace [][]traceOp, mode replayMode, batch bool, chaosProfile string, seed int64, sequential bool) traceOut {
	t.Helper()
	eng := simtime.NewEngine(seed)
	proto := interconnect.TCPIP() // jittered: exercises the rng path
	proto.BatchFaults = batch
	nodes := machine.PaperPlatform(1).Nodes
	space, err := dsm.NewSpace(nodes, proto, eng.Rand())
	if err != nil {
		t.Fatal(err)
	}
	if chaosProfile != "" {
		p, err := chaos.Named(chaosProfile, seed)
		if err != nil {
			t.Fatal(err)
		}
		space.SetChaos(chaos.New(p, seed))
	}
	reg, err := space.Alloc("eq", eqRegionPages*dsm.PageSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	totals := make([]dsm.AccessResult, len(trace))
	runOp := func(p *simtime.Proc, n int, op traceOp) {
		p.Advance(op.delay)
		var res dsm.AccessResult
		switch {
		case op.kind == 0 && mode == modeScan:
			res = reg.Access(p, n, op.off, op.len, op.write)
		case op.kind == 0 && mode == modeReference:
			first := op.off / dsm.PageSize
			last := (op.off + op.len - 1) / dsm.PageSize
			for pg := first; pg <= last; pg++ {
				r := reg.AccessPage(p, n, pg, op.write)
				res.Faults += r.Faults
				res.Stall += r.Stall
			}
		case op.kind == 1 && mode == modeScan:
			res = reg.AccessPages(p, n, op.pages, op.write)
		default: // gather, reference: dedup consecutive, per page
			prev := int64(-1)
			for _, pg := range op.pages {
				if pg == prev {
					continue
				}
				r := reg.AccessPage(p, n, pg, op.write)
				res.Faults += r.Faults
				res.Stall += r.Stall
				prev = pg
			}
		}
		totals[n].Faults += res.Faults
		totals[n].Stall += res.Stall
	}
	if sequential {
		eng.Go("seq", 0, func(p *simtime.Proc) {
			for i := 0; ; i++ {
				any := false
				for n := range trace {
					if n >= len(nodes) || i >= len(trace[n]) {
						continue
					}
					runOp(p, n, trace[n][i])
					any = true
				}
				if !any {
					return
				}
			}
		})
	} else {
		for n := range trace {
			n := n
			if n >= len(nodes) {
				break
			}
			eng.Go(fmt.Sprintf("n%d", n), 0, func(p *simtime.Proc) {
				for _, op := range trace[n] {
					runOp(p, n, op)
				}
			})
		}
	}
	if err := eng.Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}
	if err := space.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	out := traceOut{totals: totals, stats: space.Stats(), maxNow: eng.MaxNow()}
	for pg := int64(0); pg < eqRegionPages; pg++ {
		w, c := reg.PageOwner(pg)
		out.writers = append(out.writers, w)
		out.copies = append(out.copies, c)
	}
	return out
}

// assertStateEqual compares the protocol-state outcomes (everything
// except timing): page ownership, fault/invalidation/byte counts.
func assertStateEqual(t *testing.T, label string, got, want traceOut) {
	t.Helper()
	for pg := range want.writers {
		if got.writers[pg] != want.writers[pg] || got.copies[pg] != want.copies[pg] {
			t.Errorf("%s: page %d state = (w%d, %016b), want (w%d, %016b)",
				label, pg, got.writers[pg], got.copies[pg], want.writers[pg], want.copies[pg])
		}
	}
	for n := range want.stats {
		g, w := got.stats[n], want.stats[n]
		if g.ReadFaults != w.ReadFaults || g.WriteFaults != w.WriteFaults ||
			g.Invalidations != w.Invalidations || g.BytesIn != w.BytesIn {
			t.Errorf("%s: node %d counts = {r%d w%d inv%d b%d}, want {r%d w%d inv%d b%d}",
				label, n, g.ReadFaults, g.WriteFaults, g.Invalidations, g.BytesIn,
				w.ReadFaults, w.WriteFaults, w.Invalidations, w.BytesIn)
		}
	}
	for n := range want.totals {
		if got.totals[n].Faults != want.totals[n].Faults {
			t.Errorf("%s: node %d total faults = %d, want %d", label, n, got.totals[n].Faults, want.totals[n].Faults)
		}
	}
}

// assertBitIdentical additionally compares all timing outcomes.
func assertBitIdentical(t *testing.T, label string, got, want traceOut) {
	t.Helper()
	assertStateEqual(t, label, got, want)
	if got.maxNow != want.maxNow {
		t.Errorf("%s: MaxNow = %v, want %v", label, got.maxNow, want.maxNow)
	}
	for n := range want.totals {
		if got.totals[n].Stall != want.totals[n].Stall {
			t.Errorf("%s: node %d total stall = %v, want %v", label, n, got.totals[n].Stall, want.totals[n].Stall)
		}
	}
	for n := range want.stats {
		if got.stats[n].Stall != want.stats[n].Stall {
			t.Errorf("%s: node %d stats stall = %v, want %v", label, n, got.stats[n].Stall, want.stats[n].Stall)
		}
	}
}

// chaosVariants is every named profile plus the chaos-off baseline.
func chaosVariants() []string {
	return append([]string{""}, chaos.Profiles()...)
}

func TestScanPathEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		trace := genTrace(seed, 2, 60)
		for _, profile := range chaosVariants() {
			name := profile
			if name == "" {
				name = "no-chaos"
			}
			t.Run(fmt.Sprintf("seed%d/%s", seed, name), func(t *testing.T) {
				want := replay(t, trace, modeReference, false, profile, seed)
				got := replay(t, trace, modeScan, false, profile, seed)
				assertBitIdentical(t, "scan vs per-page", got, want)
			})
		}
	}
}

func TestBatchPathStateEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		trace := genTrace(seed, 2, 60)
		for _, profile := range chaosVariants() {
			name := profile
			if name == "" {
				name = "no-chaos"
			}
			t.Run(fmt.Sprintf("seed%d/%s", seed, name), func(t *testing.T) {
				want := replaySequential(t, trace, modeReference, false, profile, seed)
				got := replaySequential(t, trace, modeScan, true, profile, seed)
				assertStateEqual(t, "batch vs per-page", got, want)
			})
		}
	}
}
