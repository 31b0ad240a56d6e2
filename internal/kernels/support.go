package kernels

import (
	"math/rand"
	"sync"

	"hetmp/internal/cluster"
	"hetmp/internal/core"
)

// F64 pairs a real float64 slice with the shared region that carries
// its simulation costs. Accessor methods return subslices after
// declaring the access, so kernel bodies operate on real data while the
// DSM and cache models see the true access stream.
type F64 struct {
	Data []float64
	Reg  *cluster.Region
}

// allocF64 allocates an n-element vector homed at the origin node.
func allocF64(a *core.App, name string, n int) *F64 {
	return &F64{
		Data: make([]float64, n),
		Reg:  a.Alloc(name, int64(n)*8),
	}
}

// R declares a read of elements [lo, hi) and returns them.
func (v *F64) R(e cluster.Env, lo, hi int) []float64 {
	e.Load(v.Reg, int64(lo)*8, int64(hi-lo)*8)
	return v.Data[lo:hi]
}

// W declares a write of elements [lo, hi) and returns them.
func (v *F64) W(e cluster.Env, lo, hi int) []float64 {
	e.Store(v.Reg, int64(lo)*8, int64(hi-lo)*8)
	return v.Data[lo:hi]
}

// RW declares a read-modify-write of elements [lo, hi).
func (v *F64) RW(e cluster.Env, lo, hi int) []float64 {
	e.Load(v.Reg, int64(lo)*8, int64(hi-lo)*8)
	e.Store(v.Reg, int64(lo)*8, int64(hi-lo)*8)
	return v.Data[lo:hi]
}

// sharedF64 pairs data that every run of one input shape shares with a
// region of this run, homed at the origin node: the run declares its
// own accesses, but the host holds the read-only data once.
func sharedF64(a *core.App, name string, data []float64) *F64 {
	return &F64{Data: data, Reg: a.Alloc(name, int64(len(data))*8)}
}

// I32 pairs an int32 slice with its region.
type I32 struct {
	Data []int32
	Reg  *cluster.Region
}

// allocI32 allocates an n-element vector homed at the origin node.
func allocI32(a *core.App, name string, n int) *I32 {
	return &I32{
		Data: make([]int32, n),
		Reg:  a.Alloc(name, int64(n)*4),
	}
}

// sharedI32 is sharedF64 for int32 data.
func sharedI32(a *core.App, name string, data []int32) *I32 {
	return &I32{Data: data, Reg: a.Alloc(name, int64(len(data))*4)}
}

// R declares a read of elements [lo, hi) and returns them.
func (v *I32) R(e cluster.Env, lo, hi int) []int32 {
	e.Load(v.Reg, int64(lo)*4, int64(hi-lo)*4)
	return v.Data[lo:hi]
}

// W declares a write of elements [lo, hi) and returns them.
func (v *I32) W(e cluster.Env, lo, hi int) []int32 {
	e.Store(v.Reg, int64(lo)*4, int64(hi-lo)*4)
	return v.Data[lo:hi]
}

// scaled rounds n×scale to at least lo.
func scaled(n int, scale float64, lo int) int {
	v := int(float64(n) * scale)
	if v < lo {
		v = lo
	}
	return v
}

// rng returns the deterministic generator all kernels seed their data
// with.
func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// zeroF64 and addF64 are a float64 sum's reset and combine.
func zeroF64(acc *float64)     { *acc = 0 }
func addF64(dst, src *float64) { *dst += *src }

// absf is a float abs without importing math for one call site.
func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// references holds one once-cell per key, so a process that runs one
// kernel shape many times (a suite, a parallel hetbench, a benchmark
// pass) computes each per-shape value once: a kernel's read-only input
// arrays, the per-iteration results no schedule can change (EP's block
// tallies, blackscholes' prices, lavaMD's box forces), which each run
// folds into its own output, and a sequential verification reference.
// Each kernel keys it with a private struct type holding every value the
// computation reads, one type per value; the computation is a method of
// that type.
var references sync.Map // key -> func() V (a sync.OnceValue)

// reference returns compute's value for key, computing it at most once
// per process; concurrent first callers wait for the one computation.
// Every caller gets the same value, so cache only what no run writes.
// An entry lives as long as the process: the inputs and tables of every
// shape one process runs stay resident, about 49 MB of inputs and 9 MB
// of tables at Scale 1, and 12 MB in all for the quick suite.
func reference[K comparable, V any](key K, compute func() V) V {
	f, ok := references.Load(key)
	if !ok {
		f, _ = references.LoadOrStore(key, sync.OnceValue(compute))
	}
	return f.(func() V)()
}
