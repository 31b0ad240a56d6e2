package main

import (
	"encoding/json"
	"flag"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"hetmp/internal/rpc"
	"hetmp/internal/runconfig"
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

// hetload -connect end to end: a RegionServer built from hetserve's
// flags, as hetserve builds it, bound to a loopback rpc.Server, serves
// the remote path's jobs with the same completions, failures,
// rejections, cache hits and misses, per-tenant counts and summed
// virtual time as the in-process run of the same flags, and both
// reports name the chaos profile they ran under. cross_tenant_warm is
// not compared: it depends on admission order, which the network
// decides.
func TestRemoteMatchesInProcess(t *testing.T) {
	for _, tc := range []struct {
		name        string
		serve, load []string
	}{
		{"plain", nil, nil},
		{"chaos", []string{"-chaos-profile", "mixed"}, []string{"-chaos-profile", "mixed", "-chaos-slo"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			load := append([]string{"-quiet", "-jobs", "60", "-tenants", "3", "-signatures", "4", "-seed", "1"}, tc.load...)
			local := runReport(t, load)
			remote := runReport(t, append(load, "-connect", serveLoopback(t, tc.serve)))
			type counts struct {
				Completed, Failed, Rejections, CacheHits, CacheMisses int
				VirtualSeconds                                        float64
				TenantJobs                                            map[string]int
				ChaosProfile                                          string
			}
			project := func(r server.LoadReport) counts {
				return counts{r.Completed, r.Failed, r.Rejections, r.CacheHits, r.CacheMisses, r.VirtualSeconds, r.TenantJobs, r.ChaosProfile}
			}
			got, want := project(remote), project(local)
			if !reflect.DeepEqual(got, want) || got.Completed != 60 {
				t.Fatalf("remote = %+v, in-process = %+v, want equal with 60 completed", got, want)
			}
			if i := slices.Index(tc.load, "-chaos-profile"); i >= 0 && got.ChaosProfile != tc.load[i+1] {
				t.Fatalf("reports carry chaos profile %q, want %q", got.ChaosProfile, tc.load[i+1])
			}
		})
	}
}

// runReport runs hetload with args and returns its JSON report.
func runReport(t *testing.T, args []string) server.LoadReport {
	t.Helper()
	path := filepath.Join(t.TempDir(), "report.json")
	if err := run(append(args, "-json", path)); err != nil {
		t.Fatalf("hetload %v: %v", args, err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var r server.LoadReport
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatal(err)
	}
	return r
}

// serveLoopback serves a region server configured by hetserve's
// serving flags on a loopback rpc.Server until the test ends, and
// returns its address.
func serveLoopback(t *testing.T, args []string) string {
	t.Helper()
	fs := flag.NewFlagSet("hetserve", flag.ContinueOnError)
	flags := runconfig.RegisterServe(fs, 256)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	host, err := flags.Server()
	if err != nil {
		t.Fatal(err)
	}
	rs, _, err := server.NewSimServer(host)
	if err != nil {
		t.Fatal(err)
	}
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
	t.Cleanup(func() {
		srv.Close()
		<-served
		rs.Close()
	})
	return ln.Addr().String()
}
