package cluster

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"hetmp/internal/interconnect"
	"hetmp/internal/machine"
)

// teamSchedule is a random fork/join schedule in the shape of core's
// teams: threads on nodes, each node with an end and a start
// rendezvous pair walked as one four-link chain, and node leaders that
// run code and meet at a global barrier. Under flat every thread is
// its own leader and every link is nil, as under core's FlatHierarchy;
// a node with one thread gets nil links either way.
type teamSchedule struct {
	threads []int // per node
	flat    bool
	rounds  int
	work    [][]float64 // [thread][round]: compute ops before the walk; 0 makes ties
}

func randomTeamSchedule(rng *rand.Rand, flat bool) teamSchedule {
	s := teamSchedule{threads: make([]int, 1+rng.Intn(3)), flat: flat, rounds: 1 + rng.Intn(4)}
	for n := range s.threads {
		s.threads[n] = 1 + rng.Intn(4)
		for i := 0; i < s.threads[n]; i++ {
			w := make([]float64, s.rounds)
			for r := range w {
				w[r] = float64(rng.Intn(3)) * 1e4
			}
			s.work = append(s.work, w)
		}
	}
	return s
}

// rendezvous is one of the schedule's two barriers: per-node arrive
// and release rendezvous plus the leaders' global one.
type rendezvous struct {
	arrive, release []Barrier
	global          Barrier
}

func newRendezvous(c Cluster, s teamSchedule) rendezvous {
	r := rendezvous{arrive: make([]Barrier, len(s.threads)), release: make([]Barrier, len(s.threads))}
	leaders := len(s.threads)
	if s.flat {
		leaders = len(s.work)
	}
	for n, k := range s.threads {
		if k > 1 && !s.flat {
			r.arrive[n], r.release[n] = c.NewBarrier(k), c.NewBarrier(k)
		}
	}
	r.global = c.NewBarrier(leaders)
	return r
}

// runTeamSchedule runs s on c. Each thread walks its node's chain, or
// with seq waits the same links one Barrier.Wait at a time. It returns
// the run's event log (meaningful on Sim only) and how many threads
// led each node at each barrier of each round.
func runTeamSchedule(t *testing.T, c Cluster, s teamSchedule, seq bool) ([]string, [][][2]int) {
	t.Helper()
	end, start := newRendezvous(c, s), newRendezvous(c, s)
	chains := make([]Chain, len(s.threads))
	links := make([][]Link, len(s.threads))
	for n := range s.threads {
		links[n] = []Link{
			{Barrier: end.arrive[n], Stop: true}, {Barrier: end.release[n]},
			{Barrier: start.arrive[n], Stop: true}, {Barrier: start.release[n]},
		}
		chains[n] = c.NewChain(links[n]...)
	}
	var mu sync.Mutex
	var log []string
	leads := make([][][2]int, s.rounds)
	for r := range leads {
		leads[r] = make([][2]int, len(s.threads))
	}
	lead := func(e Env, b rendezvous, r, which int) {
		mu.Lock()
		leads[r][e.Node()][which]++
		mu.Unlock()
		e.Compute(5e3, 0)
		b.global.Wait(e)
		if rel := b.release[e.Node()]; rel != nil {
			rel.Wait(e)
		}
	}
	err := c.Run(func(master Env) {
		var hs []Handle
		flat := 0
		for n, k := range s.threads {
			for i := 0; i < k; i++ {
				work := s.work[flat]
				name := fmt.Sprintf("n%d.t%d", n, i)
				flat++
				hs = append(hs, master.Spawn(n, name, func(e Env) {
					walk := func(from int) int {
						if seq {
							return localChain(links[n]).Wait(e, from)
						}
						return chains[n].Wait(e, from)
					}
					for r := 0; r < s.rounds; r++ {
						e.Compute(work[r], 0)
						at := walk(0)
						if at == 0 {
							lead(e, end, r, 0)
							at = walk(2)
						}
						if at == 2 {
							lead(e, start, r, 1)
						}
						mu.Lock()
						log = append(log, fmt.Sprintf("%s:r%d@%d", name, r, e.Now()))
						mu.Unlock()
					}
				}))
			}
		}
		for _, h := range hs {
			h.Join(master)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return log, leads
}

func testPlatform(nodes int) machine.Platform {
	p := machine.Platform{}
	for n := 0; n < nodes; n++ {
		spec := machine.XeonE5_2620v4().ScaleCaches(1.0 / 64)
		if n%2 == 1 {
			spec = machine.ThunderX().ScaleCaches(1.0 / 64)
		}
		spec.Name = fmt.Sprintf("%s%d", spec.Name, n)
		p.Nodes = append(p.Nodes, spec)
	}
	return p
}

// checkLeaders asserts one leader per node and barrier each round,
// every thread under flat and on one-thread nodes.
func checkLeaders(t *testing.T, s teamSchedule, leads [][][2]int) {
	t.Helper()
	for r := range leads {
		for n, got := range leads[r] {
			want := 1
			if s.flat {
				want = s.threads[n]
			}
			if got != [2]int{want, want} {
				t.Fatalf("%+v: round %d node %d had %v leaders, want %d at each barrier", s, r, n, got, want)
			}
		}
	}
}

// TestSimChainMatchesSequentialWaits: over seeded random team
// schedules, hierarchical and flat, walking a sim chain gives the same
// event log, clocks and makespan as waiting its links in turn.
func TestSimChainMatchesSequentialWaits(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 60; i++ {
		s := randomTeamSchedule(rng, i%3 == 2)
		run := func(seq bool) ([]string, int64) {
			c, err := NewSim(SimConfig{Platform: testPlatform(len(s.threads)), Protocol: interconnect.RDMA56(), Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			log, leads := runTeamSchedule(t, c, s, seq)
			checkLeaders(t, s, leads)
			return log, int64(c.Elapsed())
		}
		want, wantEnd := run(true)
		got, gotEnd := run(false)
		if !slices.Equal(got, want) || gotEnd != wantEnd {
			t.Fatalf("%+v: chained run diverges from sequential waits:\n got  %v (%d)\n want %v (%d)",
				s, got, gotEnd, want, wantEnd)
		}
	}
}

// TestLocalChainLeaders: the Local backend's chains elect exactly the
// leaders its sequential barriers would, hierarchical and flat.
func TestLocalChainLeaders(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20; i++ {
		s := randomTeamSchedule(rng, i%2 == 1)
		c, err := NewLocal(LocalConfig{NodeCores: s.threads})
		if err != nil {
			t.Fatal(err)
		}
		_, leads := runTeamSchedule(t, c, s, false)
		checkLeaders(t, s, leads)
	}
}
