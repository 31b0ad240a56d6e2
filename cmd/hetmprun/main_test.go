package main

import (
	"flag"
	"io"
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
		return run(s, "EP-C", experiments.CfgHetProbe, proto)
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
