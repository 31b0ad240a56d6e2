package simtime

import (
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"
)

// A chain plan is a random barrier schedule decoded from bytes: procs
// split into groups, a template of links (each over every proc or over
// the walker's group, stop or not), and per proc and round some work
// before the walk and some work after each stop. Every proc walks the
// whole template each round, so every barrier is met in one order by
// all its parties and no plan can deadlock. The work includes spawning
// a child in the past, which leaves a strictly earlier proc runnable
// while a walker arrives, and a launcher spawns the procs over time,
// some of them in the past, so a barrier's last arrival can release at
// a time later than its own clock: the cases where the last arrival
// must requeue. The work also includes step walks over two resources,
// which the chained run takes with Proc.Walk and the reference with
// Advance and Use in turn; a child spawned in the past, a launch in the
// past or a tie on a resource makes a step yield at any position.
type chainPlan struct {
	group  []int              // group of each proc
	launch [][2]time.Duration // per proc: launcher advance before spawning it, and how far in the past
	links  []planLink
	rounds int
	work   [][][]planOp        // [proc][round]: before the walk
	lead   [][][]time.Duration // [proc][round][link]: after stopping there
}

type planLink struct {
	perGroup bool // the barrier spans the walker's group, not every proc
	stop     bool
}

type planOp struct {
	kind  int // 0 advance, 1 resource use, 2 spawn a child in the past, 3 yield, 4 step walk
	d     time.Duration
	steps []planStep // kind 4
}

// planStep is one step of a walk: a delay (res 0) or a use of resource
// res (1 or 2).
type planStep struct {
	res int
	d   time.Duration
}

// byteSource hands out the plan's choices, then zeros once data runs
// out, so every input decodes to a plan.
type byteSource struct {
	data []byte
	i    int
}

func (s *byteSource) next(n int) int {
	if s.i >= len(s.data) {
		return 0
	}
	b := s.data[s.i]
	s.i++
	return int(b) % n
}

func decodeChainPlan(data []byte) chainPlan {
	src := &byteSource{data: data}
	procs := 1 + src.next(6)
	pl := chainPlan{group: make([]int, procs)}
	pl.launch = make([][2]time.Duration, procs)
	for i := range pl.group {
		pl.group[i] = src.next(3)
		pl.launch[i] = [2]time.Duration{time.Duration(src.next(8)) * time.Microsecond,
			time.Duration(src.next(8)) * time.Microsecond}
	}
	pl.links = make([]planLink, 1+src.next(6))
	for i := range pl.links {
		pl.links[i] = planLink{perGroup: src.next(2) == 1, stop: src.next(2) == 1}
	}
	pl.rounds = 1 + src.next(3)
	pl.work = make([][][]planOp, procs)
	pl.lead = make([][][]time.Duration, procs)
	for p := 0; p < procs; p++ {
		pl.work[p] = make([][]planOp, pl.rounds)
		pl.lead[p] = make([][]time.Duration, pl.rounds)
		for r := 0; r < pl.rounds; r++ {
			for k := src.next(4); k > 0; k-- {
				op := planOp{kind: src.next(5)}
				if op.kind == 4 {
					op.steps = make([]planStep, 1+src.next(4))
					for i := range op.steps {
						op.steps[i] = planStep{res: src.next(3), d: time.Duration(src.next(4)) * time.Microsecond}
					}
				} else {
					op.d = time.Duration(src.next(4)) * time.Microsecond
				}
				pl.work[p][r] = append(pl.work[p][r], op)
			}
			pl.lead[p][r] = make([]time.Duration, len(pl.links))
			for l := range pl.links {
				pl.lead[p][r][l] = time.Duration(src.next(3)) * time.Microsecond
			}
		}
	}
	return pl
}

// encode is decodeChainPlan's inverse, for writing seeds as plans.
func (pl chainPlan) encode() []byte {
	b := []byte{byte(len(pl.group) - 1)}
	for i, g := range pl.group {
		b = append(b, byte(g), byte(pl.launch[i][0]/time.Microsecond), byte(pl.launch[i][1]/time.Microsecond))
	}
	b = append(b, byte(len(pl.links)-1))
	for _, l := range pl.links {
		b = append(b, boolByte(l.perGroup), boolByte(l.stop))
	}
	b = append(b, byte(pl.rounds-1))
	for p := range pl.group {
		for r := 0; r < pl.rounds; r++ {
			b = append(b, byte(len(pl.work[p][r])))
			for _, op := range pl.work[p][r] {
				b = append(b, byte(op.kind))
				if op.kind != 4 {
					b = append(b, byte(op.d/time.Microsecond))
					continue
				}
				b = append(b, byte(len(op.steps)-1))
				for _, st := range op.steps {
					b = append(b, byte(st.res), byte(st.d/time.Microsecond))
				}
			}
			for _, d := range pl.lead[p][r] {
				b = append(b, byte(d/time.Microsecond))
			}
		}
	}
	return b
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// runChainPlan runs pl, walking the links either with Chain.Wait or
// with the reference loop and the steps with Proc.Walk or with the
// reference calls, and returns the run's event log: every observable
// step of every proc, in execution order, with the proc's clock and the
// engine's MaxNow at that step, and each resource's state at the end.
func runChainPlan(pl chainPlan, chained bool) ([]string, time.Duration, error) {
	var log []string
	at := func(p *Proc, what string) {
		log = append(log, fmt.Sprintf("%s:%s@%d/%d", p.Name(), what, p.Now(), p.eng.MaxNow()))
	}
	e := NewEngine(1)
	res := NewResource("link")
	resources := [3]*Resource{nil, res, NewResource("wire")}

	var sizes [3]int
	for _, g := range pl.group {
		sizes[g]++
	}
	// links[g] is group g's instance of the template. The chain walks a
	// sole-party group barrier as a nil link; the reference waits on a
	// real one-party barrier, so the two must agree.
	global := make([]*Barrier, len(pl.links))
	for i := range global {
		global[i] = NewBarrier(len(pl.group))
	}
	var links [3][]Link
	var chains [3]*Chain
	for g, n := range sizes {
		if n == 0 {
			continue
		}
		for i, tl := range pl.links {
			l := Link{Barrier: global[i], Stop: tl.stop}
			if tl.perGroup {
				l.Barrier = nil
				if n > 1 || !chained {
					l.Barrier = NewBarrier(n)
				}
			}
			links[g] = append(links[g], l)
		}
		chains[g] = NewChain(links[g]...)
	}

	body := func(i int) func(*Proc) {
		g := pl.group[i]
		walk := func(p *Proc, from int) int {
			if chained {
				return chains[g].Wait(p, from)
			}
			return waitLinks(p, links[g], from)
		}
		return func(p *Proc) {
			for r := 0; r < pl.rounds; r++ {
				for k, op := range pl.work[i][r] {
					switch op.kind {
					case 0:
						p.Advance(op.d)
					case 1:
						res.Use(p, op.d)
					case 2:
						name := fmt.Sprintf("c%d.%d.%d", i, r, k)
						start := max(p.Now()-op.d, 0)
						p.eng.Go(name, start, func(c *Proc) {
							at(c, "start")
							c.Advance(op.d + time.Microsecond)
							at(c, "end")
						})
					case 3:
						p.Yield()
					case 4:
						var steps []Step
						for _, st := range op.steps {
							r := resources[st.res]
							switch {
							case chained && r == nil:
								steps = append(steps, Delay(st.d))
							case chained:
								steps = append(steps, r.Step(st.d))
							case r == nil:
								p.Advance(st.d)
							default:
								r.Use(p, st.d)
							}
						}
						if chained {
							p.Walk(steps...)
						}
					}
					at(p, fmt.Sprintf("r%dk%d", r, k))
				}
				for l := walk(p, 0); l < len(pl.links); l = walk(p, l+1) {
					at(p, fmt.Sprintf("r%dstop%d", r, l))
					p.Advance(pl.lead[i][r][l])
				}
				at(p, fmt.Sprintf("r%dwalked", r))
			}
		}
	}
	e.Go("launcher", 0, func(l *Proc) {
		for i, launch := range pl.launch {
			l.Advance(launch[0])
			e.Go(fmt.Sprintf("p%d", i), max(l.Now()-launch[1], 0), body(i))
		}
	})
	err := e.Run()
	for _, r := range resources[1:] {
		log = append(log, fmt.Sprintf("%s:next=%d busy=%d uses=%d", r.name, r.next, r.busy, r.uses))
	}
	return log, e.MaxNow(), err
}

// waitLinks is the reference a chain walk must reproduce: Barrier.Wait
// on each link in turn, returning at a stop where p was last.
func waitLinks(p *Proc, links []Link, from int) int {
	for i := from; i < len(links); i++ {
		if links[i].Barrier.Wait(p) && links[i].Stop {
			return i
		}
	}
	return len(links)
}

func checkChainPlan(t *testing.T, data []byte) {
	t.Helper()
	pl := decodeChainPlan(data)
	want, wantMax, err := runChainPlan(pl, false)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	got, gotMax, err := runChainPlan(pl, true)
	if err != nil {
		t.Fatalf("chained run: %v", err)
	}
	if i := firstDiff(got, want); i >= 0 {
		t.Fatalf("plan %x: chained trace diverges at event %d:\n got  %s\n want %s",
			data, i, eventAt(got, i), eventAt(want, i))
	}
	if gotMax != wantMax {
		t.Fatalf("plan %x: MaxNow %v, reference %v", data, gotMax, wantMax)
	}
}

func firstDiff(a, b []string) int {
	for i := 0; i < len(a) || i < len(b); i++ {
		if eventAt(a, i) != eventAt(b, i) {
			return i
		}
	}
	return -1
}

func eventAt(log []string, i int) string {
	if i < len(log) {
		return log[i]
	}
	return "(end)"
}

// chainSeeds are hand-written plans for the cases a chain must get
// exactly right.
func chainSeeds() [][]byte {
	zero := func(procs, rounds int, links ...planLink) chainPlan {
		pl := chainPlan{group: make([]int, procs), launch: make([][2]time.Duration, procs),
			links: links, rounds: rounds, work: make([][][]planOp, procs), lead: make([][][]time.Duration, procs)}
		for p := range pl.work {
			pl.work[p] = make([][]planOp, rounds)
			pl.lead[p] = make([][]time.Duration, rounds)
			for r := range pl.lead[p] {
				pl.lead[p][r] = make([]time.Duration, len(links))
			}
		}
		return pl
	}
	hier := []planLink{{true, true}, {true, false}, {false, false}, {true, true}, {true, false}}

	// Ties: six procs, two groups and a sole-party group, every clock 0.
	ties := zero(6, 2, hier...)
	ties.group = []int{0, 0, 0, 1, 1, 2}

	// A last arrival on a non-stop link while a child spawned in the
	// past is runnable: the walker requeues on its own coroutine.
	past := zero(3, 1, planLink{false, false}, planLink{false, false}, planLink{false, true})
	past.work[0][0] = []planOp{{kind: 0, d: 3 * time.Microsecond}, {kind: 2, d: 3 * time.Microsecond}}
	past.work[1][0] = []planOp{{kind: 0, d: 2 * time.Microsecond}, {kind: 2, d: 2 * time.Microsecond}}
	past.lead[2][0][2] = time.Microsecond

	// Stops with leader work between them, staggered arrivals.
	lead := zero(4, 3, hier...)
	lead.group = []int{0, 1, 0, 1}
	for p := range lead.work {
		for r := range lead.work[p] {
			lead.work[p][r] = []planOp{{kind: 1, d: time.Duration(p%3) * time.Microsecond}}
			lead.lead[p][r][0] = 2 * time.Microsecond
			lead.lead[p][r][3] = time.Microsecond
		}
	}
	// Step walks: three procs, tied at 0, queue on two resources in
	// walks of one to four steps, so some step yields at every position
	// of a walk, on both sides of it, and a four-step walk yields with
	// more steps left than the engine holds. The last proc starts
	// later, launched in the past, and spawns a child in the past just
	// before its walk.
	us := time.Microsecond
	steps := zero(3, 2, planLink{false, false}, planLink{false, true})
	steps.launch[2] = [2]time.Duration{3 * us, 2 * us}
	walk := func(st ...planStep) planOp { return planOp{kind: 4, steps: st} }
	for p := range steps.work {
		for r := range steps.work[p] {
			steps.work[p][r] = []planOp{
				walk(planStep{1, us}, planStep{0, us}, planStep{2, 2 * us}, planStep{1, 0}),
				walk(planStep{2, time.Duration(p) * us}),
				walk(planStep{0, 0}, planStep{1, us}),
			}
		}
	}
	steps.work[2][1] = append([]planOp{{kind: 2, d: 2 * us}}, steps.work[2][1]...)

	// Found by search: on Run's side of a walk, a proc launched in the
	// past is the last arrival, releases at a later arrival's clock and
	// requeues behind a strictly earlier proc.
	late, _ := hex.DecodeString("040100000207000200000203040001050101000001000001020200020303020102" +
		"00030203020201030302020102020200")
	return [][]byte{nil, ties.encode(), past.encode(), lead.encode(), steps.encode(), late}
}

// TestChainMatchesSequentialWaits: over seeded random plans and the
// hand-written seeds, a chain walk is trace-identical to Barrier.Wait
// on each link: same events in the same order, same clocks, same
// MaxNow at every step.
func TestChainMatchesSequentialWaits(t *testing.T) {
	for _, seed := range chainSeeds() {
		checkChainPlan(t, seed)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		data := make([]byte, 16+rng.Intn(96))
		rng.Read(data)
		checkChainPlan(t, data)
	}
}

func FuzzWaitChain(f *testing.F) {
	for _, seed := range chainSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkChainPlan(t, data)
	})
}

// TestChainResumesOncePerWalk: a walker that is never the last arrival
// is resumed once for the whole chain, where sequential waits resume it
// once per barrier.
func TestChainResumesOncePerWalk(t *testing.T) {
	const links = 4
	e := NewEngine(1)
	bars := make([]Link, links)
	for i := range bars {
		bars[i] = Link{Barrier: NewBarrier(2)}
	}
	c := NewChain(bars...)
	resumes := 0
	e.Go("walker", 0, func(p *Proc) {
		if got := c.Wait(p, 0); got != links {
			t.Errorf("walk ended at %d, want %d", got, links)
		}
		resumes++
	})
	e.Go("peer", 0, func(p *Proc) {
		for i := range bars {
			p.Advance(time.Microsecond)
			bars[i].Barrier.Wait(p)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.procs[0].Now() != links*time.Microsecond || resumes != 1 {
		t.Fatalf("walker at %v after %d resumes", e.procs[0].Now(), resumes)
	}
}

// TestWalkResumesOnce: a walk whose every step yields resumes the
// walker's coroutine once at its end, where the sequential calls resume
// it after each step, and both end at the same clock.
func TestWalkResumesOnce(t *testing.T) {
	const us = time.Microsecond
	run := func(walk bool) (resumes int, end time.Duration) {
		e := NewEngine(1)
		r := NewResource("r")
		w := e.Go("walker", 0, func(p *Proc) {
			if walk {
				p.Walk(Delay(us), r.Step(us), Delay(us))
				return
			}
			p.Advance(us)
			r.Use(p, us)
			p.Advance(us)
		})
		next := w.next
		w.next = func() (struct{}, bool) {
			resumes++
			return next()
		}
		// Half a step behind the walker after each of its steps.
		e.Go("peer", 0, func(p *Proc) {
			p.Advance(3 * us / 2)
			for i := 0; i < 2; i++ {
				p.Advance(us)
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return resumes, w.Now()
	}
	seqResumes, seqEnd := run(false)
	walkResumes, walkEnd := run(true)
	if seqResumes != 4 || walkResumes != 2 || walkEnd != seqEnd || walkEnd != 3*us {
		t.Fatalf("sequential: %d resumes, end %v; walk: %d resumes, end %v; want 4 and 2, both 3µs",
			seqResumes, seqEnd, walkResumes, walkEnd)
	}
}

// TestDeadlockStopsChainedProc: a proc blocked mid-walk, on Run's side
// of its chain, is reported and unwound like any blocked proc.
func TestDeadlockStopsChainedProc(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine(1)
	first := NewBarrier(2)
	c := NewChain(Link{Barrier: first}, Link{Barrier: NewBarrier(2)})
	finished := false
	e.Go("walker", 0, func(p *Proc) {
		c.Wait(p, 0)
		finished = true
	})
	e.Go("peer", 0, func(p *Proc) { first.Wait(p) })
	err := e.Run()
	if !errors.Is(err, ErrDeadlock) || !strings.Contains(err.Error(), `"walker"`) {
		t.Fatalf("Run error = %v, want ErrDeadlock naming the walker", err)
	}
	if finished {
		t.Error("a stopped walker ran past its chain")
	}
	checkNoGoroutineLeak(t, base)
}

// TestPanicBesideBlockedWaiter: a proc that panics while another waits
// on a barrier is reported as the panic, not hidden behind the
// deadlock its death leaves.
func TestPanicBesideBlockedWaiter(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine(1)
	b := NewBarrier(2)
	e.Go("waiter", 0, func(p *Proc) { b.Wait(p) })
	e.Go("boom", 0, func(p *Proc) {
		p.Advance(time.Microsecond)
		panic("kaboom")
	})
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("Run error = %v, want the panic", err)
	}
	if !errors.Is(err, ErrDeadlock) || !strings.Contains(err.Error(), `"waiter"`) {
		t.Fatalf("Run error = %v, want the blocked waiter's dump as well", err)
	}
	checkNoGoroutineLeak(t, base)
}
