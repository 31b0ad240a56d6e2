package kernels

import (
	"math/rand"

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

// absf is a float abs without importing math for one call site.
func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
