package main

import (
	"net"
	"strings"
	"testing"

	"hetmp/internal/rpc"
	"hetmp/internal/server"
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
		{[]string{"-churn", "remove:n1@3"}, "-churn"},
		{[]string{"-chaos-profile", "bogus"}, "-chaos-profile"},
		{[]string{"-queue-depth", "4", "-no-preload"}, "-no-preload, -queue-depth"},
	} {
		// Port 0 cannot be dialled: reaching the dial is a failure of
		// its own, with a different message.
		err := run(append([]string{"-quiet", "-connect", "127.0.0.1:0"}, tc.args...))
		if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "configured on the daemon") {
			t.Errorf("-connect %v: error %v, want one naming %s", tc.args, err, tc.want)
		}
	}
	// With -chaos-slo the profile picks the budget table, so it gets
	// past the flag check to the dial.
	err := run([]string{"-quiet", "-connect", "127.0.0.1:0", "-chaos-slo", "-chaos-profile", "mixed"})
	if err == nil || strings.Contains(err.Error(), "configured on the daemon") {
		t.Errorf("-connect -chaos-slo -chaos-profile mixed: error %v, want a dial failure", err)
	}
}

// hetload -connect end to end: a RegionServer built the way hetserve
// builds it, bound to a loopback rpc.Server, serves the remote path's
// jobs with the same completions, cache hits and misses and summed
// virtual time as the in-process run of the same config.
// cross_tenant_warm is not compared: it depends on admission order,
// which the network decides.
func TestRemoteMatchesInProcess(t *testing.T) {
	cfg := server.LoadConfig{Jobs: 60, Tenants: 3, Signatures: 4, Seed: 1}
	local, err := server.RunLoad(cfg)
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}

	store, err := server.NewCache("", server.SimFingerprint())
	if err != nil {
		t.Fatal(err)
	}
	rs := server.New(server.Config{
		QueueDepth:  256,
		MaxInFlight: 8,
		Executor:    server.NewSimExecutor(server.SimExecutorConfig{Seed: 1, Store: store}),
	})
	defer rs.Close()
	srv := &rpc.Server{Name: "hetserve-remote"}
	if err := server.Bind(srv, rs); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()

	remote, err := runRemote(cfg, ln.Addr().String())
	if err != nil {
		t.Fatalf("runRemote: %v", err)
	}
	type counts struct {
		Completed, CacheHits, CacheMisses int
		VirtualSeconds                    float64
	}
	got := counts{remote.Completed, remote.CacheHits, remote.CacheMisses, remote.VirtualSeconds}
	want := counts{local.Completed, local.CacheHits, local.CacheMisses, local.VirtualSeconds}
	if got != want || got.Completed != cfg.Jobs {
		t.Fatalf("remote = %+v, in-process = %+v, want equal with %d completed", got, want, cfg.Jobs)
	}
}
