// Command hetserve is the hetmp region-serving daemon: a long-running
// multi-tenant RegionServer exposed over the rpc transport. Tenants
// submit parallel-region jobs (hetload's -connect mode, or any
// rpc.Client speaking the hetmp.submit task); the server applies
// admission control, weighted fair queueing with quotas, and shares
// one probe/decision cache across every tenant. hetmp.submit is the
// one task on the wire: its request carries one gob-encoded
// server.Spec and its reply one gob-encoded server.Result. -nodes
// turns on the elastic-membership layer, with jobs chunked across the
// named nodes. SIGINT drains gracefully, persists the cache
// (when -cache-dir is set) and exits; a second SIGINT during the
// drain forces an immediate stop — partial-stats dump to stderr and
// a non-zero exit.
//
// Example:
//
//	hetserve -listen :7070 -cache-dir /var/lib/hetmp -queue-depth 512 \
//	    -max-inflight 16 -weights gold=4,silver=2 -tenant-budget 500000
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"

	"hetmp/internal/rpc"
	"hetmp/internal/runconfig"
	"hetmp/internal/server"
	"hetmp/internal/telemetry"
)

func main() {
	listen := flag.String("listen", ":7070", "address to serve the rpc transport on")
	debugAddr := flag.String("debug-addr", "", "serve /metrics and /trace on this address")
	serve := runconfig.RegisterServe(flag.CommandLine, 256)
	flag.Parse()
	host, err := serve.Server()
	if err == nil {
		err = run(*listen, *debugAddr, host)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "hetserve: %v\n", err)
		os.Exit(1)
	}
}

func run(listen, debugAddr string, host server.SimServerConfig) error {
	if debugAddr != "" {
		host.Telemetry = telemetry.New(telemetry.Options{})
		_, bound, err := telemetry.ServeDebug("hetserve", debugAddr, host.Telemetry)
		if err != nil {
			return err
		}
		fmt.Printf("hetserve: metrics on http://%s/metrics\n", bound)
	}

	host.Logf = func(f string, a ...any) { fmt.Printf(f+"\n", a...) }
	rs, exec, err := server.NewSimServer(host)
	if err != nil {
		return err
	}
	if len(host.Members) > 0 {
		fmt.Printf("hetserve: elastic membership with %d nodes\n", len(host.Members))
	}

	srv := &rpc.Server{Name: "hetserve", Telemetry: host.Telemetry}
	if err := server.Bind(srv, rs); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigc
		fmt.Printf("hetserve: %v, draining (signal again to force stop)\n", s)
		// A second signal during the drain forces an immediate stop:
		// dump whatever stats exist right now and exit non-zero — the
		// operator asked twice, so a wedged drain must not hold the
		// process hostage.
		go func() {
			s2 := <-sigc
			fmt.Fprintf(os.Stderr, "hetserve: %v during drain, forcing stop\n", s2)
			dumpPartialStats(rs)
			os.Exit(1)
		}()
		rs.Drain()
		if err := exec.Save(); err != nil {
			fmt.Fprintf(os.Stderr, "hetserve: cache save: %v\n", err)
		}
		st := rs.Stats()
		fmt.Printf("hetserve: served %d jobs (%d warm, %d cross-tenant), %d rejections\n",
			st.Completed, st.CacheHits, st.CrossTenantWarm, st.Rejected)
		rs.Close()
		srv.Close()
	}()

	fmt.Printf("hetserve: serving on %s (queue %d, in-flight %d)\n", ln.Addr(), host.QueueDepth, host.MaxInFlight)
	if err := srv.Serve(ln); err != nil && !errors.Is(err, rpc.ErrServerClosed) {
		return err
	}
	return nil
}

// dumpPartialStats writes the server's current Stats snapshot to
// stderr as JSON — the forced-stop path's record of what completed
// before the operator pulled the plug.
func dumpPartialStats(rs *server.RegionServer) {
	st := rs.Stats()
	data, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "hetserve: partial stats: %v\n", err)
		return
	}
	fmt.Fprintf(os.Stderr, "hetserve: partial stats at forced stop:\n%s\n", data)
}
