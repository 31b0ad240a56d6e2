package main

import (
	"strings"
	"testing"
)

// An unknown -protocol must fail naming the valid ones, not silently
// run over RDMA.
func TestRunRejectsUnknownProtocol(t *testing.T) {
	err := run("EP-C", "HetProbe", "tcp", 0, true, "", 1, false, "", nil)
	if err == nil {
		t.Fatal(`run accepted -protocol "tcp"`)
	}
	for _, name := range []string{"rdma", "tcpip"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not name %q", err, name)
		}
	}
}

// A negative -scale must fail, not run at the default scale.
func TestRunRejectsNegativeScale(t *testing.T) {
	if err := run("EP-C", "HetProbe", "rdma", -3, true, "", 1, false, "", nil); err == nil || !strings.Contains(err.Error(), "-scale") {
		t.Fatalf("run with -scale -3 returned %v, want an error naming -scale", err)
	}
}
