package main

import (
	"strings"
	"testing"
)

// Every flag that configures the in-process server is an error with
// -connect, named in the message, and nothing is dialled: the remote
// run would otherwise drop it without a word.
func TestConnectRejectsInProcessFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-verify-determinism"}, "-verify-determinism"},
		{[]string{"-cache-dir", "d"}, "-cache-dir"},
		{[]string{"-queue-depth", "4"}, "-queue-depth"},
		{[]string{"-max-inflight", "2"}, "-max-inflight"},
		{[]string{"-tenant-budget", "100"}, "-tenant-budget"},
		{[]string{"-weights", "t0=2"}, "-weights"},
		{[]string{"-no-preload"}, "-no-preload"},
		{[]string{"-nodes", "n0:xeon:1"}, "-nodes"},
		{[]string{"-queue-depth", "4", "-no-preload"}, "-no-preload, -queue-depth"},
	} {
		// Port 0 cannot be dialled: reaching the dial is a failure of
		// its own, with a different message.
		err := run(append([]string{"-quiet", "-connect", "127.0.0.1:0"}, tc.args...))
		if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "configured on the daemon") {
			t.Errorf("-connect %v: error %v, want one naming %s", tc.args, err, tc.want)
		}
	}
}
