package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

// Config.Logf runs outside the server lock: a Logf that reads Stats
// must not stall a membership call, a scheduled churn event or Drain.
func TestLogfMayReadStats(t *testing.T) {
	var srv atomic.Pointer[RegionServer]
	logf := func(format string, args ...any) {
		if s := srv.Load(); s != nil {
			s.Stats()
		}
	}
	s := New(Config{
		Executor: &fakeExec{},
		Members:  []Member{{Name: "a", Class: "xeon"}, {Name: "b", Class: "xeon"}},
		Churn:    []ChurnEvent{{AtDispatch: 1, Op: ChurnAdd, Member: Member{Name: "c", Class: "xeon"}}},
		Logf:     logf,
	})
	srv.Store(s)
	within := func(what string, f func()) {
		t.Helper()
		done := make(chan struct{})
		go func() {
			f()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(3 * time.Second):
			t.Fatalf("%s did not return within 3 s: a Logf call ran under the server lock", what)
		}
	}
	within("RemoveNode", func() {
		if err := s.RemoveNode("b"); err != nil {
			t.Errorf("RemoveNode: %v", err)
		}
	})
	within("the churn event at dispatch 1", func() {
		for i := 0; i < 2; i++ {
			if _, err := s.Submit(Spec{Tenant: "t", Region: "r"}); err != nil {
				t.Errorf("submit %d: %v", i, err)
			}
		}
	})
	if got := s.Stats().Membership.ChurnApplied; got != 1 {
		t.Fatalf("ChurnApplied = %d, want 1", got)
	}
	within("Drain", s.Drain)
	s.Close()
}

// coreDriver runs a dispatch core alone, on one goroutine: it plays the
// shell's dispatcher (a dispatch pass after every call), node lanes and
// laneless goroutines, completing each run the core hands out with a
// fake result, in the order choose picks from the runs outstanding.
type coreDriver struct {
	d      *dispatch
	choose func(n int) int
	fail   func(c *chunk) bool // the run's result is an error

	runs     []coreRun
	awake    map[*memberState]bool // lanes that pull before they wait
	busy     map[*memberState]bool
	seen     []*memberState // every incarnation of every member
	finished map[int]int    // job seq → finish actions
	errs     []string
}

type coreRun struct {
	m *memberState // nil for a laneless chunk
	c *chunk
}

func newCoreDriver(cfg Config) *coreDriver {
	cd := &coreDriver{
		choose:   func(int) int { return 0 },
		fail:     func(*chunk) bool { return false },
		awake:    map[*memberState]bool{},
		busy:     map[*memberState]bool{},
		finished: map[int]int{},
	}
	cd.d = newDispatch(cfg)
	cd.take()
	return cd
}

func (cd *coreDriver) errorf(format string, args ...any) {
	cd.errs = append(cd.errs, fmt.Sprintf(format, args...))
}

// take runs a dispatch pass, applies the core's actions the way the
// shell does, and checks that no removed member holds a queued chunk.
func (cd *coreDriver) take() {
	cd.d.pump()
	a := cd.d.take()
	for _, m := range a.starts {
		cd.awake[m] = true
		cd.seen = append(cd.seen, m)
	}
	for _, m := range a.wakes {
		cd.awake[m] = true
	}
	for _, c := range a.laneless {
		cd.runs = append(cd.runs, coreRun{c: c})
	}
	for _, f := range a.done {
		j := f.j
		cd.finished[j.seq]++
		if f.r.Err == nil && j.invsDone != j.spec.Invocations {
			cd.errorf("job %d: %d invocations done, %d planned", j.seq, j.invsDone, j.spec.Invocations)
		}
	}
	for _, m := range cd.seen {
		if m.state == NodeRemoved && len(m.queue) > 0 {
			cd.errorf("removed member %s holds %d queued chunks", m.spec.Name, len(m.queue))
		}
	}
}

// run drives the core until nothing is outstanding.
func (cd *coreDriver) run() {
	for {
		// Every awake, idle lane pulls, as memberLoop does.
		for _, m := range cd.seen {
			if !cd.awake[m] || cd.busy[m] {
				continue
			}
			w := cd.d.next(m)
			cd.take()
			switch {
			case w.exit:
				delete(cd.awake, m)
			case w.c != nil:
				cd.busy[m] = true
				cd.runs = append(cd.runs, coreRun{m: m, c: w.c})
			default:
				delete(cd.awake, m)
			}
		}
		if len(cd.runs) == 0 {
			return
		}
		i := cd.choose(len(cd.runs))
		r := cd.runs[i]
		cd.runs = append(cd.runs[:i], cd.runs[i+1:]...)
		if r.m != nil {
			cd.busy[r.m] = false
			cd.awake[r.m] = true // the lane pulls again after a run
		}
		var err error
		if cd.fail(r.c) {
			err = errors.New("injected failure")
		}
		cd.d.complete(r.m, r.c, ExecResult{VirtualNs: 1, Predictions: 1}, err)
		cd.take()
	}
}

// The dispatch decision needs no lane, goroutine or executor: the core
// alone, fed load-smoke's and the churn sweep's seeded admission orders
// and completing every run at once, reproduces the dispatch hash and
// budget windows the serving golden records for those rows.
func TestDispatchCoreMatchesGolden(t *testing.T) {
	data, err := os.ReadFile(loadGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var golden []goldenLoad
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	names, cfgs := goldenLoadConfigs(t)
	for i, lc := range cfgs {
		lc = lc.WithDefaults()
		cd := newCoreDriver(Config{
			QueueDepth: lc.QueueDepth, MaxInFlight: lc.MaxInFlight, TenantIterBudget: lc.TenantIterBudget,
			Weights: lc.Weights, StartPaused: true, Members: lc.Members, Churn: lc.Churn,
		})
		for k, sp := range Workload(lc) {
			if _, err := cd.d.admit(sp.withDefaults(), nil); err != nil {
				t.Fatalf("%s: admit %d: %v", names[i], k, err)
			}
			cd.take()
		}
		cd.d.resume()
		cd.take()
		cd.run()
		for _, e := range cd.errs {
			t.Errorf("%s: %s", names[i], e)
		}
		st := cd.d.stats()
		want := golden[i].Report
		if golden[i].Name != names[i] {
			t.Fatalf("golden row %d is %q, want %q", i, golden[i].Name, names[i])
		}
		if got := fmt.Sprintf("%016x", st.DispatchHash); got != want.DispatchHash || st.BudgetWindows != want.BudgetWindows {
			t.Errorf("%s: core gives hash %s, %d budget windows; golden %s, %d",
				names[i], got, st.BudgetWindows, want.DispatchHash, want.BudgetWindows)
		}
		if st.Completed != lc.Jobs || len(cd.finished) != lc.Jobs {
			t.Errorf("%s: %d completed, %d finished, want %d", names[i], st.Completed, len(cd.finished), lc.Jobs)
		}
	}
}

// dispatchInput is one FuzzDispatchCore case decoded from bytes: at most
// three tenants, signatures and members, at most eight jobs and four
// churn events, the jobs whose probers fail, and a completion order.
type dispatchInput struct {
	cfg   Config
	specs []Spec
	fails uint8 // bit k: job k's prober run fails
	order []byte
}

func decodeDispatchInput(b []byte) dispatchInput {
	at := 0
	next := func() int {
		if at >= len(b) {
			return 0
		}
		at++
		return int(b[at-1])
	}
	in := dispatchInput{}
	h := next()
	tenants, sigs, members := 1+h%3, 1+h/3%3, h/9%4
	in.cfg = Config{QueueDepth: 16, MaxInFlight: 1 + next()%3, StartPaused: true}
	if v := next() % 4; v > 0 {
		in.cfg.TenantIterBudget = int64(v) * 16
	}
	// The class is a label the core only reports; two of them keep
	// every older seed decoding to the same plan.
	class := func(v int) string {
		if v%4 == 3 {
			return "cold"
		}
		return "xeon"
	}
	for k := 0; k < members; k++ {
		v := next()
		in.cfg.Members = append(in.cfg.Members, Member{Name: fmt.Sprintf("m%d", k), Class: class(v), Weight: float64(1 + v%3)})
	}
	jobs := next() % 9
	for k := 0; k < jobs; k++ {
		v := next()
		in.specs = append(in.specs, Spec{
			Tenant: fmt.Sprintf("t%d", v%tenants), Region: fmt.Sprintf("r%d", v/3%sigs),
			Iterations: 8, Invocations: 1 + v/9%4, Priority: v / 36 % 2,
		})
	}
	if members > 0 {
		ops := []ChurnOp{ChurnAdd, ChurnRemove, ChurnCordon, ChurnUncordon}
		for k, n := 0, next()%5; k < n; k++ {
			v, w := next(), next()
			ev := ChurnEvent{AtDispatch: w % 10, Op: ops[v%4], Member: Member{Name: fmt.Sprintf("m%d", v/4%4)}}
			if ev.Op == ChurnAdd {
				ev.Member.Class = class(v / 16)
			}
			in.cfg.Churn = append(in.cfg.Churn, ev)
		}
		sort.SliceStable(in.cfg.Churn, func(i, j int) bool { return in.cfg.Churn[i].AtDispatch < in.cfg.Churn[j].AtDispatch })
	}
	in.fails = uint8(next())
	in.order = b[min(at, len(b)):]
	return in
}

// runDispatchInput drives one decoded input through the core with the
// given completion order and reports the dispatch hash and every
// broken property.
func runDispatchInput(in dispatchInput, choose func(n int) int) (uint64, []string) {
	cd := newCoreDriver(in.cfg)
	cd.choose = choose
	cd.fail = func(c *chunk) bool { return c.j.prober && c.j.seq < 8 && in.fails&(1<<c.j.seq) != 0 }
	admitted := 0
	for _, sp := range in.specs {
		if _, err := cd.d.admit(sp.withDefaults(), nil); err == nil {
			admitted++
		}
		cd.take()
	}
	cd.d.drain()
	cd.take()
	cd.run()
	if len(cd.finished) != admitted {
		cd.errorf("%d of %d admitted jobs finished", len(cd.finished), admitted)
	}
	for seq, n := range cd.finished {
		if n != 1 {
			cd.errorf("job %d finished %d times", seq, n)
		}
	}
	st := cd.d.stats()
	if st.Membership != nil && st.Membership.LostIterations != 0 {
		cd.errorf("LostIterations = %d", st.Membership.LostIterations)
	}
	if st.QueueDepth != 0 || st.InFlight != 0 {
		cd.errorf("drained core has %d queued, %d in flight", st.QueueDepth, st.InFlight)
	}
	return st.DispatchHash, cd.errs
}

// FuzzDispatchCore checks the dispatch core's properties over generated
// tenant mixes, membership churn, prober failures and completion
// orders: every admitted job finishes exactly once, planned invocations
// equal done ones, no chunk stays queued on a removed member, and the
// dispatch hash does not depend on the completion order.
func FuzzDispatchCore(f *testing.F) {
	f.Add([]byte{0x1a, 1, 0, 1, 2, 7, 6, 0, 10, 20, 30, 40, 50, 60, 2, 1, 30, 5, 0, 3, 2, 1})
	f.Add([]byte{0x08, 2, 2, 7, 0, 4, 9, 18, 27, 36, 0xff, 1, 2})
	f.Add([]byte{0x1a, 0, 0, 3, 0, 8, 1, 2, 3, 4, 5, 6, 7, 8, 4, 4, 1, 0, 2, 12, 3, 1, 4, 0x05, 3, 3, 3})
	// An uncordon of a "cold"-class member at milestone 2: its outcome
	// enters the hash, so it must not wait on anything a lane runs.
	f.Add([]byte("7007000000Cz"))
	f.Fuzz(func(t *testing.T, b []byte) {
		in := decodeDispatchInput(b)
		k := 0
		fromBytes := func(n int) int {
			if k >= len(in.order) {
				return 0
			}
			k++
			return int(in.order[k-1]) % n
		}
		h1, errs := runDispatchInput(in, fromBytes)
		h2, errs2 := runDispatchInput(in, func(n int) int { return n - 1 })
		for _, e := range append(errs, errs2...) {
			t.Error(e)
		}
		if h1 != h2 {
			t.Errorf("dispatch hash %016x under one completion order, %016x under another", h1, h2)
		}
	})
}
