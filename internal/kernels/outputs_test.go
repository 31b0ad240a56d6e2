package kernels

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"testing"

	"hetmp/internal/core"
)

// The kernel outputs golden: a digest of the bits every result array
// and scalar of every kernel holds after a run, under the static and
// HetProbe schedules. Verify compares a run against a reference built
// from the same helpers, so a numerics change moves both sides and still
// passes; this file does not move with it. A kernel's host arithmetic
// may be restructured only if this file stays byte-identical (DESIGN.md
// §12). `make golden` deletes it and runs the test, which writes it
// afresh when it is missing.
const outputsGoldenPath = "testdata/outputs.json"

type goldenOutputs struct {
	Name    string            `json:"name"`
	Outputs map[string]string `json:"outputs"`
}

// outputDigests records each named output as hex: a scalar as its bits,
// an array as the first 16 bytes of the SHA-256 of its little-endian
// bits.
type outputDigests map[string]string

func (o outputDigests) scalar(name string, v float64) {
	o[name] = fmt.Sprintf("%016x", math.Float64bits(v))
}

func (o outputDigests) array(name string, words []uint64) {
	h := sha256.New()
	var b [8]byte
	for _, w := range words {
		binary.LittleEndian.PutUint64(b[:], w)
		h.Write(b[:])
	}
	o[name] = hex.EncodeToString(h.Sum(nil)[:16])
}

func (o outputDigests) f64(name string, v []float64) {
	words := make([]uint64, len(v))
	for i, x := range v {
		words[i] = math.Float64bits(x)
	}
	o.array(name, words)
}

// intWords widens an integer array to the words its digest is taken over.
func intWords[T int | int32 | int64](v []T) []uint64 {
	w := make([]uint64, len(v))
	for i, x := range v {
		w[i] = uint64(x)
	}
	return w
}

// kernelOutputs digests everything k computed: its result arrays and
// reduced scalars, not its generated inputs.
func kernelOutputs(k Kernel) outputDigests {
	o := outputDigests{}
	switch k := k.(type) {
	case *blackscholes:
		o.f64("prices", k.prices.Data)
	case *adi:
		o.f64("u", k.u.Data)
		o.scalar("checksum", k.checksumAfter)
	case *cfd:
		o.f64("density", k.density.Data)
		o.f64("momentum", k.momentum.Data)
		o.f64("energy", k.energy.Data)
		o.f64("fluxD", k.fluxD.Data)
		o.f64("fluxE", k.fluxE.Data)
		o.scalar("checksum", k.checksum)
	case *cg:
		o.f64("x", k.x.Data)
		o.f64("p", k.p.Data)
		o.f64("q", k.q.Data)
		o.f64("r", k.r.Data)
		o.scalar("residual", k.residual)
	case *ep:
		o.scalar("sx", k.sx)
		o.scalar("sy", k.sy)
		o.array("counts", intWords(k.counts[:]))
	case *kmeansK:
		o.f64("centers", k.centers.Data)
		o.array("membership", intWords(k.membership.Data))
		o.scalar("inertia", k.inertia)
	case *lavaMD:
		o.f64("fv", k.fv.Data)
	case *lud:
		o.f64("m", k.m.Data)
	case *streamcluster:
		o.f64("assignCost", k.assignCost.Data)
		o.array("assignTo", intWords(k.assignTo.Data))
		o.array("centers", intWords(k.centers))
		o.scalar("totalCost", k.totalCost)
	default:
		panic(fmt.Sprintf("kernelOutputs: no outputs listed for %T", k))
	}
	return o
}

// TestKernelOutputsMatchGolden runs every kernel at the scale of
// TestAllKernelsVerifyUnderStatic under the static and HetProbe
// schedules and compares the digests of its outputs byte for byte. It
// is exact on amd64 only, where it was written: other architectures
// may fuse a multiply and an add. The race detector moves no bit and
// makes the runs ten times slower, so the raced gates skip it.
func TestKernelOutputsMatchGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("kernel outputs golden is exact on amd64; not comparing on GOARCH=%s", runtime.GOARCH)
	}
	if raceEnabled {
		t.Skip("the kernel outputs golden runs without -race")
	}
	scheds := []struct {
		name  string
		sched core.Schedule
	}{{"static", core.StaticSchedule()}, {"HetProbe", core.HetProbeSchedule()}}
	got := make([]goldenOutputs, 0, len(PaperOrder)*len(scheds))
	for _, name := range PaperOrder {
		for _, s := range scheds {
			got = append(got, goldenOutputs{Name: name + "/" + s.name})
		}
	}
	t.Run("runs", func(t *testing.T) {
		for i := range got {
			name, sched := PaperOrder[i/len(scheds)], scheds[i%len(scheds)].sched
			t.Run(got[i].Name, func(t *testing.T) {
				t.Parallel()
				got[i].Outputs = kernelOutputs(runKernel(t, name, 0.25, sched))
			})
		}
	})
	if t.Failed() {
		return
	}
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')

	golden, err := os.ReadFile(outputsGoldenPath)
	if os.IsNotExist(err) {
		if err := os.WriteFile(outputsGoldenPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Skipf("no %s to compare against: wrote it; review and commit it", outputsGoldenPath)
	}
	if err != nil {
		t.Fatal(err)
	}
	if string(golden) == string(data) {
		return
	}
	var want []goldenOutputs
	if err := json.Unmarshal(golden, &want); err != nil {
		t.Fatalf("%s: %v", outputsGoldenPath, err)
	}
	for i, g := range got {
		var w goldenOutputs
		if i < len(want) {
			w = want[i]
		}
		if !reflect.DeepEqual(w, g) {
			wj, _ := json.Marshal(w.Outputs)
			gj, _ := json.Marshal(g.Outputs)
			t.Errorf("%s:\n golden %s\n    got %s", g.Name, wj, gj)
		}
	}
	t.Errorf("outputs differ from %s; if every row above is intended, regenerate it with `make golden`", outputsGoldenPath)
}
