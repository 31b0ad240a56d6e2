package server

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeExec is a deterministic instant executor for scheduler tests: it
// records nothing about timing, optionally stalls until released, and
// reports a synthetic warm result for every signature after its first
// execution (mimicking the shared cache without running a sim).
type fakeExec struct {
	mu    sync.Mutex
	seen  map[string]bool
	gate  chan struct{} // non-nil: Execute blocks until closed
	delay time.Duration
	calls int
}

func (f *fakeExec) Execute(sp Spec) (ExecResult, error) {
	f.mu.Lock()
	if f.seen == nil {
		f.seen = map[string]bool{}
	}
	warm := f.seen[sp.Sig()]
	f.seen[sp.Sig()] = true
	gate := f.gate
	f.calls++
	f.mu.Unlock()
	if gate != nil {
		<-gate
	}
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	res := ExecResult{VirtualNs: 1000, Faults: 1}
	if warm {
		res.Predictions = 1
	} else {
		res.Probes = 4
	}
	return res, nil
}

// preload submits jobs to a paused server, failing the test on any
// admission error.
func preload(t *testing.T, s *RegionServer, specs []Spec) []<-chan Result {
	t.Helper()
	chans := make([]<-chan Result, 0, len(specs))
	for i, sp := range specs {
		ch, err := s.SubmitAsync(sp)
		if err != nil {
			t.Fatalf("submit %d (%s/%s): %v", i, sp.Tenant, sp.Region, err)
		}
		chans = append(chans, ch)
	}
	return chans
}

func collect(chans []<-chan Result) []Result {
	out := make([]Result, 0, len(chans))
	for _, ch := range chans {
		out = append(out, <-ch)
	}
	return out
}

// tenantOf extracts the tenant from a dispatch record "seq:tenant:sig".
func tenantOf(rec string) string {
	parts := strings.SplitN(rec, ":", 3)
	return parts[1]
}

// Two tenants with equal weights and a 10:1 submission skew must share
// dispatches ~1:1 while both are backlogged: the starved tenant's 10
// jobs all dispatch among the first 20+tolerance slots, well ahead of
// the hog's tail.
func TestFairnessSkewedSubmission(t *testing.T) {
	s := New(Config{StartPaused: true, MaxInFlight: 1, QueueDepth: 256, Executor: &fakeExec{}})
	defer s.Close()
	var specs []Spec
	for i := 0; i < 100; i++ {
		specs = append(specs, Spec{Tenant: "hog", Region: "r"})
	}
	for i := 0; i < 10; i++ {
		specs = append(specs, Spec{Tenant: "starved", Region: "r"})
	}
	chans := preload(t, s, specs)
	s.Resume()
	collect(chans)
	order := s.DispatchOrder()
	if len(order) != 110 {
		t.Fatalf("dispatched %d jobs, want 110", len(order))
	}
	// Equal weights, equal cost: strict alternation while both queues
	// are non-empty, so all 10 starved jobs land in the first 20
	// dispatches (tolerance +2 for the lexicographic tie-break).
	last := 0
	starved := 0
	for i, rec := range order {
		if tenantOf(rec) == "starved" {
			starved++
			last = i
		}
	}
	if starved != 10 {
		t.Fatalf("starved dispatched %d jobs, want 10", starved)
	}
	if last >= 22 {
		t.Fatalf("starved tenant's last job dispatched at position %d, want < 22 (hog hogged the queue)", last)
	}
	// The hog's 100th job must come after every starved job.
	if hundredth := order[len(order)-1]; tenantOf(hundredth) != "hog" {
		t.Fatalf("last dispatch = %s, want the hog's tail", hundredth)
	}
}

// A 2:1 weight ratio yields a ~2:1 dispatch share while both tenants
// are backlogged.
func TestFairnessWeighted(t *testing.T) {
	s := New(Config{
		StartPaused: true, MaxInFlight: 1, QueueDepth: 256,
		Weights:  map[string]float64{"big": 2, "small": 1},
		Executor: &fakeExec{},
	})
	defer s.Close()
	var specs []Spec
	for i := 0; i < 60; i++ {
		specs = append(specs, Spec{Tenant: "big", Region: "r"})
	}
	for i := 0; i < 30; i++ {
		specs = append(specs, Spec{Tenant: "small", Region: "r"})
	}
	chans := preload(t, s, specs)
	s.Resume()
	collect(chans)
	order := s.DispatchOrder()
	big := 0
	for _, rec := range order[:45] {
		if tenantOf(rec) == "big" {
			big++
		}
	}
	// Ideal share in the first 45 dispatches is 30 (2/3). Allow ±3.
	if big < 27 || big > 33 {
		t.Fatalf("big tenant got %d of the first 45 dispatches, want 30±3 (weight 2:1)", big)
	}
}

// Priority orders jobs within one tenant's queue; FIFO within equal
// priorities.
func TestPriorityWithinTenant(t *testing.T) {
	s := New(Config{StartPaused: true, MaxInFlight: 1, Executor: &fakeExec{}})
	defer s.Close()
	specs := []Spec{
		{Tenant: "a", Region: "lo1"},
		{Tenant: "a", Region: "lo2"},
		{Tenant: "a", Region: "hi1", Priority: 5},
		{Tenant: "a", Region: "hi2", Priority: 5},
	}
	chans := preload(t, s, specs)
	s.Resume()
	collect(chans)
	var regions []string
	for _, rec := range s.DispatchOrder() {
		sig := strings.SplitN(rec, ":", 3)[2]
		regions = append(regions, strings.SplitN(sig, "/", 2)[0])
	}
	want := []string{"hi1", "hi2", "lo1", "lo2"}
	for i, r := range regions {
		if r != want[i] {
			t.Fatalf("dispatch order %v, want %v", regions, want)
		}
	}
}

// Dedicated queue-full backpressure test: the bounded queue rejects
// with a typed, matchable error, the rejection is counted, and the
// admitted backlog still completes.
func TestQueueFullBackpressure(t *testing.T) {
	s := New(Config{StartPaused: true, QueueDepth: 4, MaxInFlight: 1, Executor: &fakeExec{}})
	defer s.Close()
	var chans []<-chan Result
	for i := 0; i < 4; i++ {
		ch, err := s.SubmitAsync(Spec{Tenant: "a", Region: "r"})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		chans = append(chans, ch)
	}
	if _, err := s.SubmitAsync(Spec{Tenant: "a", Region: "r"}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("5th submit = %v, want ErrQueueFull", err)
	}
	if _, err := s.Submit(Spec{Tenant: "b", Region: "r"}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("other tenant's submit = %v, want ErrQueueFull (the bound is global)", err)
	}
	st := s.Stats()
	if st.Rejected != 2 {
		t.Fatalf("Rejected = %d, want 2", st.Rejected)
	}
	if st.Tenants["b"].Rejected != 1 {
		t.Fatalf("tenant b rejections = %d, want 1", st.Tenants["b"].Rejected)
	}
	s.Resume()
	for i, r := range collect(chans) {
		if r.Err != nil {
			t.Fatalf("admitted job %d failed: %v", i, r.Err)
		}
	}
	// Space freed: admission works again.
	if _, err := s.Submit(Spec{Tenant: "a", Region: "r"}); err != nil {
		t.Fatalf("submit after drain-down: %v", err)
	}
}

// Dedicated graceful-drain test: Drain completes every admitted job,
// rejects new work with ErrDraining, and Close after Drain is clean.
func TestGracefulDrain(t *testing.T) {
	fe := &fakeExec{gate: make(chan struct{})}
	s := New(Config{MaxInFlight: 2, QueueDepth: 64, Executor: fe})
	var chans []<-chan Result
	for i := 0; i < 12; i++ {
		ch, err := s.SubmitAsync(Spec{Tenant: "a", Region: "r"})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		chans = append(chans, ch)
	}
	drained := make(chan struct{})
	go func() {
		s.Drain()
		close(drained)
	}()
	// Drain must not complete while jobs are gated mid-execution.
	select {
	case <-drained:
		t.Fatal("Drain returned with jobs still in flight")
	case <-time.After(20 * time.Millisecond):
	}
	// Draining servers reject new submissions with the typed error.
	if _, err := s.SubmitAsync(Spec{Tenant: "a", Region: "r"}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit during drain = %v, want ErrDraining", err)
	}
	close(fe.gate)
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("Drain did not complete after jobs finished")
	}
	for i, r := range collect(chans) {
		if r.Err != nil {
			t.Fatalf("admitted job %d failed: %v", i, r.Err)
		}
	}
	st := s.Stats()
	if st.Completed != 12 || st.QueueDepth != 0 || st.InFlight != 0 {
		t.Fatalf("after drain: completed=%d depth=%d inflight=%d, want 12/0/0", st.Completed, st.QueueDepth, st.InFlight)
	}
	s.Close()
	if _, err := s.Submit(Spec{Tenant: "a", Region: "r"}); !errors.Is(err, ErrStopped) {
		t.Fatalf("submit after Close = %v, want ErrStopped", err)
	}
}

// The dispatch sequence of a preloaded workload is a pure function of
// the admission order: two servers fed identically produce bit-equal
// dispatch hashes, budgets and priorities included, regardless of
// completion timing (the second server's executor jitters).
func TestDeterministicDispatchHash(t *testing.T) {
	mkSpecs := func() []Spec {
		var specs []Spec
		tenants := []string{"a", "b", "c", "d"}
		for i := 0; i < 80; i++ {
			specs = append(specs, Spec{
				Tenant:   tenants[i%len(tenants)],
				Region:   []string{"x", "y", "z"}[i%3],
				Priority: i % 2,
			})
		}
		return specs
	}
	run := func(delay time.Duration) (uint64, []string) {
		s := New(Config{
			StartPaused: true, MaxInFlight: 4, QueueDepth: 128,
			Weights:          map[string]float64{"a": 3, "b": 1, "c": 1, "d": 2},
			TenantIterBudget: 3 * 4096 * 4,
			Executor:         &fakeExec{delay: delay},
		})
		defer s.Close()
		chans := preload(t, s, mkSpecs())
		s.Resume()
		collect(chans)
		return s.DispatchHash(), s.DispatchOrder()
	}
	h1, o1 := run(0)
	h2, o2 := run(time.Millisecond)
	if h1 != h2 {
		t.Fatalf("dispatch hashes differ: %x vs %x\norder1=%v\norder2=%v", h1, h2, o1, o2)
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("dispatch order diverges at %d: %s vs %s", i, o1[i], o2[i])
		}
	}
}

// The dispatch record log is bounded — a daemon must not grow it for
// life — while the hash chain still covers every record.
func TestDispatchOrderBounded(t *testing.T) {
	const jobs = 2*dispatchOrderKeep + 300 // crosses a compaction
	s := New(Config{StartPaused: true, QueueDepth: jobs, Executor: &fakeExec{}})
	defer s.Close()
	specs := make([]Spec, jobs)
	for i := range specs {
		specs[i] = Spec{Tenant: "a", Region: "r"}
	}
	chans := preload(t, s, specs)
	s.Resume()
	collect(chans)

	// One tenant, one priority: dispatch order is admission order.
	want := newHashState()
	var all []string
	for i := range specs {
		rec := fmt.Sprintf("%d:a:%s", i, specs[i].Sig())
		want.mix(rec)
		all = append(all, rec)
	}
	order := s.DispatchOrder()
	if len(order) != dispatchOrderKeep {
		t.Fatalf("DispatchOrder kept %d records after %d dispatches, want %d", len(order), jobs, dispatchOrderKeep)
	}
	for i, rec := range order {
		if wantRec := all[jobs-dispatchOrderKeep+i]; rec != wantRec {
			t.Fatalf("kept record %d = %s, want %s (the newest %d)", i, rec, wantRec, dispatchOrderKeep)
		}
	}
	if got := s.DispatchHash(); got != want.h {
		t.Fatalf("DispatchHash = %x, want %x over all %d records", got, want.h, jobs)
	}
}

// Iteration budgets bound a hog's share per window without losing
// liveness: windows advance when every queued tenant is budget-blocked
// and all jobs still complete.
func TestBudgetWindows(t *testing.T) {
	cost := int64(4096 * 4)
	s := New(Config{
		StartPaused: true, MaxInFlight: 1, QueueDepth: 64,
		TenantIterBudget: 2 * cost,
		Executor:         &fakeExec{},
	})
	defer s.Close()
	var specs []Spec
	for i := 0; i < 10; i++ {
		specs = append(specs, Spec{Tenant: "hog", Region: "r"})
	}
	specs = append(specs, Spec{Tenant: "meek", Region: "r"})
	chans := preload(t, s, specs)
	s.Resume()
	for i, r := range collect(chans) {
		if r.Err != nil {
			t.Fatalf("job %d failed: %v", i, r.Err)
		}
	}
	st := s.Stats()
	if st.BudgetWindows == 0 {
		t.Fatal("budget never opened a new window despite a 2-job-per-window cap and 10 queued jobs")
	}
	// The meek tenant (1 job, submitted last) must dispatch inside the
	// first window — before the hog's third job.
	order := s.DispatchOrder()
	for i, rec := range order {
		if tenantOf(rec) == "meek" {
			if i > 2 {
				t.Fatalf("meek job dispatched at position %d, want ≤ 2", i)
			}
			break
		}
	}
	if st.Completed != 11 {
		t.Fatalf("completed %d, want 11", st.Completed)
	}
}

// An oversized job (cost exceeding a whole window budget) still runs:
// a tenant that has spent nothing this window may dispatch its head
// job.
func TestOversizedJobLiveness(t *testing.T) {
	s := New(Config{
		StartPaused: true, MaxInFlight: 1,
		TenantIterBudget: 100, // far below any job's cost
		Executor:         &fakeExec{},
	})
	defer s.Close()
	chans := preload(t, s, []Spec{
		{Tenant: "a", Region: "big"},
		{Tenant: "a", Region: "big2"},
	})
	s.Resume()
	done := make(chan struct{})
	go func() { collect(chans); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("oversized jobs starved under the iteration budget")
	}
}

// Stats and per-tenant accounting add up.
func TestStatsAccounting(t *testing.T) {
	s := New(Config{StartPaused: true, MaxInFlight: 2, Executor: &fakeExec{}})
	defer s.Close()
	chans := preload(t, s, []Spec{
		{Tenant: "a", Region: "r"},
		{Tenant: "a", Region: "r"},
		{Tenant: "b", Region: "r"},
	})
	s.Resume()
	collect(chans)
	s.Drain()
	st := s.Stats()
	if st.Submitted != 3 || st.Admitted != 3 || st.Dispatched != 3 || st.Completed != 3 {
		t.Fatalf("totals = %+v, want 3/3/3/3", st)
	}
	if st.Tenants["a"].Completed != 2 || st.Tenants["b"].Completed != 1 {
		t.Fatalf("per-tenant completions = a:%d b:%d, want 2/1", st.Tenants["a"].Completed, st.Tenants["b"].Completed)
	}
	if st.CacheHits+st.CacheMisses != 3 {
		t.Fatalf("cache hits %d + misses %d != 3", st.CacheHits, st.CacheMisses)
	}
	if st.VirtualNs != 3000 {
		t.Fatalf("VirtualNs = %d, want 3000", st.VirtualNs)
	}
}

// failFirst fails the first execution of one signature without running
// it, so the wrapped executor still sees that signature as cold.
type failFirst struct {
	inner  Executor
	sig    string
	mu     sync.Mutex
	failed bool
}

var errInjectedProbe = errors.New("injected prober failure")

func (f *failFirst) failNow(sp Spec) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failed || sp.Sig() != f.sig {
		return false
	}
	f.failed = true
	return true
}

func (f *failFirst) Execute(sp Spec) (ExecResult, error) {
	if f.failNow(sp) {
		return ExecResult{}, errInjectedProbe
	}
	return f.inner.Execute(sp)
}

// failFirstChunk is failFirst over an executor with the chunk
// capability.
type failFirstChunk struct{ *failFirst }

func (f failFirstChunk) ExecuteChunk(sp Spec, invocations, chunkIndex int) (ExecResult, error) {
	if f.failNow(sp) {
		return ExecResult{}, errInjectedProbe
	}
	return f.inner.(ChunkExecutor).ExecuteChunk(sp, invocations, chunkIndex)
}

// A failed prober hands the probe to the earliest-dispatched parked job
// — Seq 1, every time, whatever order goroutines run in — and with
// members that job's split plan collapses to one whole-job chunk. The
// other three run warm off the new prober's entry.
func TestFailedProberHandsOffProbe(t *testing.T) {
	for _, tc := range []struct {
		name    string
		members []Member
	}{{"laneless", nil}, {"members", threeNodes()}} {
		t.Run(tc.name, func(t *testing.T) {
			for iter := 0; iter < 20; iter++ {
				sp := Spec{Tenant: "t0", Region: "r", Invocations: 6}
				ff := &failFirst{sig: sp.Sig()}
				var exec Executor = ff
				if tc.members == nil {
					ff.inner = &fakeExec{}
				} else {
					ff.inner = newFakeChunkExec()
					exec = failFirstChunk{ff}
				}
				s := New(Config{StartPaused: true, Executor: exec, Members: tc.members})
				chans := preload(t, s, []Spec{sp, sp, sp, sp, sp})
				s.Resume()

				var failed, cold, warm int
				for _, r := range collect(chans) {
					switch {
					case r.Err != nil:
						if !errors.Is(r.Err, errInjectedProbe) {
							t.Fatalf("job %d: err = %v, want the injected failure", r.Seq, r.Err)
						}
						failed++
					case r.Probes > 0:
						cold++
						if r.Seq != 1 {
							t.Fatalf("iteration %d: job %d re-probed, want job 1, the earliest parked", iter, r.Seq)
						}
						if r.Chunks != 1 {
							t.Errorf("cold job %d ran %d chunks, want 1 whole-job chunk", r.Seq, r.Chunks)
						}
					case r.Warm:
						warm++
					}
				}
				if failed != 1 || cold != 1 || warm != 3 {
					t.Fatalf("failed/cold/warm = %d/%d/%d, want 1/1/3", failed, cold, warm)
				}
				st := s.Stats()
				if st.Failed != 1 || st.WarmProbes != 0 || st.CacheMisses != 1 || st.CacheHits != 3 {
					t.Fatalf("Failed/WarmProbes/CacheMisses/CacheHits = %d/%d/%d/%d, want 1/0/1/3",
						st.Failed, st.WarmProbes, st.CacheMisses, st.CacheHits)
				}
				if tc.members != nil && st.Membership.LostIterations != 0 {
					t.Fatalf("LostIterations = %d, want 0", st.Membership.LostIterations)
				}
				s.Close()
			}
		})
	}
}

// A job parked on its signature's probe lane holds an in-flight slot
// and no goroutine: with the prober blocked in its executor, the 40
// same-signature jobs parked behind it add nothing to the goroutine
// count beyond the prober's own chunk.
func TestParkedJobsHoldNoGoroutine(t *testing.T) {
	const parked = 40
	fe := &fakeExec{gate: make(chan struct{})}
	s := New(Config{StartPaused: true, MaxInFlight: parked + 1, QueueDepth: parked + 1, Executor: fe})
	defer s.Close()
	before := runtime.NumGoroutine()
	specs := make([]Spec, parked+1)
	for i := range specs {
		specs[i] = Spec{Tenant: fmt.Sprintf("t%d", i%3), Region: "r"}
	}
	chans := preload(t, s, specs)
	s.Resume()
	waitFor(t, func() bool {
		fe.mu.Lock()
		calls := fe.calls
		fe.mu.Unlock()
		return calls == 1 && s.Stats().InFlight == parked+1
	}, "the prober executing with every other job dispatched")
	if grew := runtime.NumGoroutine() - before; grew > 2 {
		t.Errorf("%d jobs parked behind a blocked prober added %d goroutines, want at most 2", parked, grew)
	}
	close(fe.gate)
	for _, r := range collect(chans) {
		if r.Err != nil {
			t.Fatalf("job %d failed: %v", r.Seq, r.Err)
		}
	}
	if st := s.Stats(); st.CacheMisses != 1 || st.CacheHits != parked || st.WarmProbes != 0 {
		t.Fatalf("CacheMisses/CacheHits/WarmProbes = %d/%d/%d, want 1/%d/0", st.CacheMisses, st.CacheHits, st.WarmProbes, parked)
	}
}
