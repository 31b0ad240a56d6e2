package core

import (
	"fmt"
	"time"

	"hetmp/internal/cluster"
	"hetmp/internal/dsm"
)

// CalibrationPoint is one sample of the Section 3.2 microbenchmark: the
// compute intensity (operations per byte transferred), the aggregate
// throughput achieved, and the observed per-thread page-fault period.
type CalibrationPoint struct {
	OpsPerByte  float64
	Throughput  float64 // operations per second, all remote threads
	FaultPeriod time.Duration
}

// The Section 3.2 procedure, fixed: the intensities (ops/byte) the
// microbenchmark samples, the pages each remote thread transfers, and
// the knee, the share of plateau throughput where cross-node execution
// breaks even. At a quarter the remote node's many cores still
// contribute more than their interference costs; the paper's 100 µs
// RDMA threshold sits at the same knee of its Figure 4b curve.
var calibrationGrid = [...]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384, 65536}

const calibrationPages, kneeFrac = 8, 0.25

// DeriveThreshold runs the Section 3.2 procedure on fresh clusters
// from mkCluster and returns Options.FaultPeriodThreshold: the Figure
// 4 microbenchmark's fault period at the knee of its throughput.
func DeriveThreshold(mkCluster func() (cluster.Cluster, error)) (time.Duration, error) {
	points, err := Calibrate(mkCluster, calibrationGrid[:])
	if err != nil {
		return 0, fmt.Errorf("derive threshold: %w", err)
	}
	return knee(points), nil
}

// Calibrate runs the paper's DSM microbenchmark: threads on every
// non-origin node touch disjoint sets of pages (forcing the protocol to
// transfer them) and then execute a configurable number of compute
// operations per transferred byte. It returns one point per intensity
// in opsPerByte. mkCluster must return a fresh cluster per call (the
// microbenchmark re-runs the control loop on clean DSM state).
//
// The resulting curve reproduces Figure 4: throughput saturates once
// computation amortizes fault costs. DeriveThreshold reads the
// threshold off the same curve over its own grid.
func Calibrate(mkCluster func() (cluster.Cluster, error), opsPerByte []float64) ([]CalibrationPoint, error) {
	points := make([]CalibrationPoint, 0, len(opsPerByte))
	for _, k := range opsPerByte {
		cl, err := mkCluster()
		if err != nil {
			return nil, err
		}
		pt, err := calibratePoint(cl, k)
		if err != nil {
			return nil, fmt.Errorf("calibrate at %g ops/byte: %w", k, err)
		}
		points = append(points, pt)
	}
	return points, nil
}

func calibratePoint(cl cluster.Cluster, opsPerByte float64) (CalibrationPoint, error) {
	specs := cl.NodeSpecs()
	origin := cl.Origin()
	type result struct {
		elapsed time.Duration
		faults  int64
	}
	var wall time.Duration

	// Count remote threads: one per core on every non-origin node.
	remoteThreads := 0
	for i, s := range specs {
		if i != origin {
			remoteThreads += s.Cores
		}
	}
	if remoteThreads == 0 {
		return CalibrationPoint{}, fmt.Errorf("platform has no remote node to calibrate against")
	}
	results := make([]result, remoteThreads)

	pageBytes := int64(dsm.PageSize)
	opsPerPage := opsPerByte * float64(pageBytes)
	region := cl.Alloc("calibrate", int64(remoteThreads)*int64(calibrationPages)*pageBytes, origin)

	err := cl.Run(func(master cluster.Env) {
		// Control loop: the source node touches all pages, forcing the
		// protocol to bring everything back to origin memory.
		master.Store(region, 0, region.Size())

		start := master.Now()
		handles := make([]cluster.Handle, 0, remoteThreads)
		tid := 0
		for nodeIdx, s := range specs {
			if nodeIdx == origin {
				continue
			}
			for c := 0; c < s.Cores; c++ {
				id := tid
				tid++
				handles = append(handles, master.Spawn(nodeIdx, fmt.Sprintf("cal%d", id), func(e cluster.Env) {
					t0, before := e.Now(), e.Counters()
					base := int64(id) * int64(calibrationPages) * pageBytes
					for p := 0; p < calibrationPages; p++ {
						e.Load(region, base+int64(p)*pageBytes, pageBytes)
						e.Compute(opsPerPage, 0.5)
					}
					results[id] = result{elapsed: e.Now() - t0, faults: e.Counters().Sub(before).RemoteFaults}
				}))
			}
		}
		for _, h := range handles {
			h.Join(master)
		}
		wall = master.Now() - start
	})
	if err != nil {
		return CalibrationPoint{}, err
	}

	var totalElapsed time.Duration
	var totalFaults int64
	var totalOps float64
	for _, r := range results {
		totalElapsed += r.elapsed
		totalFaults += r.faults
		totalOps += opsPerPage * float64(calibrationPages)
	}
	pt := CalibrationPoint{OpsPerByte: opsPerByte, FaultPeriod: infinitePeriod}
	if wall > 0 {
		pt.Throughput = totalOps / wall.Seconds()
	}
	if totalFaults > 0 {
		pt.FaultPeriod = totalElapsed / time.Duration(totalFaults)
	}
	return pt, nil
}

// knee returns the fault period at the break-even compute intensity,
// where the microbenchmark's throughput reaches kneeFrac of the
// measured plateau (the paper eyeballs the same point off Figure 4).
// The period is linearly interpolated between the bracketing samples,
// so a coarse intensity grid still yields a smooth threshold. Points
// are DeriveThreshold's, one per grid intensity in ascending order.
func knee(points []CalibrationPoint) time.Duration {
	var peak float64
	for _, p := range points {
		if p.Throughput > peak {
			peak = p.Throughput
		}
	}
	target := kneeFrac * peak
	i := 0 // the first sample at or above the target; the peak is one
	for points[i].Throughput < target {
		i++
	}
	p := points[i]
	if i == 0 || p.FaultPeriod == infinitePeriod || points[i-1].FaultPeriod == infinitePeriod ||
		p.Throughput == points[i-1].Throughput {
		return p.FaultPeriod
	}
	// Interpolate the period between the bracketing samples.
	prev := points[i-1]
	t := (target - prev.Throughput) / (p.Throughput - prev.Throughput)
	return prev.FaultPeriod + time.Duration(t*float64(p.FaultPeriod-prev.FaultPeriod))
}
