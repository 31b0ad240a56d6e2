// Package runconfig defines, once, the flags commands share, and checks
// their values before anything runs: the simulator commands' (hetmprun,
// hetbench), which configure an experiments.Suite run under pprof
// profiles, and the serving commands' (hetserve, hetload; serve.go).
package runconfig

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"hetmp/internal/chaos"
	"hetmp/internal/experiments"
	"hetmp/internal/interconnect"
)

// Flags holds the shared flag values of one command.
type Flags struct {
	quick, batchFaults                                  bool
	scale                                               float64
	chaosProfile, decisionStore, cpuProfile, memProfile string
	chaosSeed                                           int64
	// protocol is nil unless the command takes -protocol.
	protocol *string
}

// Register adds the shared flags to fs, plus -protocol when the
// command takes one (a command without it runs each experiment's own
// protocol).
func Register(fs *flag.FlagSet, withProtocol bool) *Flags {
	f := &Flags{}
	fs.BoolVar(&f.quick, "quick", false, "run reduced problem sizes on a smaller platform")
	fs.Float64Var(&f.scale, "scale", 0, "scale-model point: problem sizes × S, node caches × S/8 (0 = the suite's own)")
	fs.BoolVar(&f.batchFaults, "batch-faults", false, "enable the DSM's batched-fault protocol in every run and in calibration")
	fs.StringVar(&f.chaosProfile, "chaos-profile", "", "inject a named degradation profile into every run (enables HetProbe re-decision): "+strings.Join(chaos.Profiles(), " | "))
	fs.Int64Var(&f.chaosSeed, "chaos-seed", 1, "seed for the chaos schedule; same seed = same degradation, bit for bit")
	fs.StringVar(&f.decisionStore, "decision-store", "", "directory of persistent HetProbe decision stores: seed decisions from prior runs (skipping the probing period) and save learned ones back")
	fs.StringVar(&f.cpuProfile, "cpuprofile", "", "write a pprof CPU profile of the run to this file")
	fs.StringVar(&f.memProfile, "memprofile", "", "write a pprof heap profile (post-GC, at exit) to this file")
	if withProtocol {
		f.protocol = fs.String("protocol", "rdma", "interconnect protocol: rdma or tcpip")
	}
	return f
}

// Run validates the flags and calls fn with the suite they configure
// and the -protocol spec (RDMA when the command takes no -protocol),
// under the CPU profile if one was asked for; the heap profile is
// written after fn returns and a forced GC, so it shows what is live
// at the end of the run. Where each profile went is reported on notes.
func (f *Flags) Run(notes io.Writer, fn func(*experiments.Suite, interconnect.Spec) error) error {
	if f.scale < 0 {
		return fmt.Errorf("-scale %g is negative", f.scale)
	}
	if f.chaosProfile != "" {
		if _, err := chaos.Named(f.chaosProfile, f.chaosSeed); err != nil {
			return fmt.Errorf("-chaos-profile: %w", err)
		}
	}
	proto := interconnect.RDMA56()
	if f.protocol != nil {
		var err error
		if proto, err = interconnect.ByName(*f.protocol); err != nil {
			return fmt.Errorf("-protocol: %w", err)
		}
	}
	s := experiments.Default()
	if f.quick {
		s = experiments.Quick()
	}
	if f.scale > 0 {
		s.SetScale(f.scale)
	}
	s.BatchFaults = f.batchFaults
	s.ChaosProfile = f.chaosProfile
	s.ChaosSeed = f.chaosSeed
	s.DecisionStore = f.decisionStore

	var err error
	if f.cpuProfile != "" {
		err = writeProfile(notes, "cpu", f.cpuProfile, func(w io.Writer) error {
			if err := pprof.StartCPUProfile(w); err != nil {
				return err
			}
			defer pprof.StopCPUProfile()
			return fn(s, proto)
		})
	} else {
		err = fn(s, proto)
	}
	if err == nil && f.memProfile != "" {
		err = writeProfile(notes, "heap", f.memProfile, func(w io.Writer) error {
			runtime.GC()
			return pprof.WriteHeapProfile(w)
		})
	}
	return err
}

// writeProfile creates path, lets write fill it and notes where the
// profile went.
func writeProfile(notes io.Writer, kind, path string, write func(io.Writer) error) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(out); err != nil {
		out.Close()
		return err
	}
	if err := out.Close(); err != nil {
		return err
	}
	fmt.Fprintf(notes, "%s profile written to %s\n", kind, path)
	return nil
}
