package server

import (
	"errors"
	"fmt"
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
