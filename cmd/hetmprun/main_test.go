package main

import (
	"flag"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"hetmp/internal/experiments"
	"hetmp/internal/interconnect"
	"hetmp/internal/runconfig"
)

// runArgs parses args the way main does (the shared sim flags with
// -protocol) and runs EP-C under HetProbe, reporting whether run was
// reached.
func runArgs(t *testing.T, args ...string) (ran bool, err error) {
	t.Helper()
	fs := flag.NewFlagSet("hetmprun", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	sim := runconfig.Register(fs, true)
	if err := fs.Parse(append([]string{"-quick"}, args...)); err != nil {
		t.Fatal(err)
	}
	err = sim.Run(io.Discard, func(s *experiments.Suite, proto interconnect.Spec) error {
		ran = true
		return runBench(s, "EP-C", experiments.CfgHetProbe, proto)
	})
	return ran, err
}

// An unknown -protocol must fail naming the valid ones, not silently
// run over RDMA.
func TestRunRejectsUnknownProtocol(t *testing.T) {
	ran, err := runArgs(t, "-protocol", "tcp")
	if err == nil || ran {
		t.Fatalf(`-protocol "tcp": ran %v, error %v; want an error before the run`, ran, err)
	}
	for _, name := range []string{"rdma", "tcpip"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not name %q", err, name)
		}
	}
}

// A negative -scale must fail, not run at the default scale.
func TestRunRejectsNegativeScale(t *testing.T) {
	if ran, err := runArgs(t, "-scale", "-3"); err == nil || ran || !strings.Contains(err.Error(), "-scale") {
		t.Fatalf("-scale -3: ran %v, error %v; want an error naming -scale before the run", ran, err)
	}
}

// With -rpc every flag that configures the simulated run is an error
// naming it, before anything is dialled: the rpc path would otherwise
// drop it without a word. The profiles and telemetry dumps are not
// refused: they cover the rpc run too.
func TestRPCRejectsSimulatorFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-quick"}, "-quick"},
		{[]string{"-scale", "0.5"}, "-scale"},
		{[]string{"-batch-faults"}, "-batch-faults"},
		{[]string{"-chaos-profile", "mixed"}, "-chaos-profile"},
		{[]string{"-chaos-seed", "7"}, "-chaos-seed"},
		{[]string{"-decision-store", "d"}, "-decision-store"},
		{[]string{"-protocol", "tcpip"}, "-protocol"},
		{[]string{"-bench", "lud"}, "-bench"},
		{[]string{"-config", "Xeon"}, "-config"},
		{[]string{"-quick", "-chaos-seed", "7", "-cpuprofile", "p"}, "-chaos-seed, -quick"},
	} {
		// Port 0 cannot be dialled: reaching the dial is a failure of
		// its own, with a different message.
		err := run(append([]string{"-rpc", "127.0.0.1:0"}, tc.args...))
		if err == nil || !strings.Contains(err.Error(), tc.want+" configure the simulator") {
			t.Errorf("-rpc %v: error %v, want one naming %s", tc.args, err, tc.want)
		}
	}
	dir := t.TempDir()
	metrics, cpu := filepath.Join(dir, "run.prom"), filepath.Join(dir, "cpu.pprof")
	err := run([]string{"-rpc", "127.0.0.1:0", "-metrics", metrics, "-cpuprofile", cpu})
	if err == nil || strings.Contains(err.Error(), "configure the simulator") {
		t.Errorf("-rpc -metrics -cpuprofile: error %v, want a dial failure", err)
	}
}
