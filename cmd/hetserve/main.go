// Command hetserve is the hetmp region-serving daemon: a long-running
// multi-tenant RegionServer exposed over the rpc transport. Tenants
// submit parallel-region jobs (hetload's -connect mode, or any
// rpc.Client speaking the hetmp.submit task); the server applies
// admission control, weighted fair queueing with quotas, and shares
// one probe/decision cache across every tenant. -nodes turns on the
// elastic-membership layer; nodes can then be added, removed,
// cordoned and uncordoned on the live daemon over rpc (the
// hetmp.node-* tasks). SIGINT drains gracefully, persists the cache
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
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"hetmp/internal/chaos"
	"hetmp/internal/rpc"
	"hetmp/internal/server"
	"hetmp/internal/telemetry"
)

func main() {
	var (
		listen      = flag.String("listen", ":7070", "address to serve the rpc transport on")
		cacheDir    = flag.String("cache-dir", "", "persist the shared decision cache in this directory (empty = in-memory only)")
		queueDepth  = flag.Int("queue-depth", 256, "bounded admission queue depth (global)")
		maxInflight = flag.Int("max-inflight", 8, "maximum concurrently executing jobs")
		tenantMax   = flag.Int("tenant-max-inflight", 0, "per-tenant in-flight cap (0 = unlimited)")
		budget      = flag.Int64("tenant-budget", 0, "per-tenant iteration budget per window (0 = unlimited)")
		weights     = flag.String("weights", "", "per-tenant fair-share weights, tenant=w,tenant=w (default weight 1)")
		chaosProf   = flag.String("chaos-profile", "", "run every job under this chaos profile")
		seed        = flag.Int64("seed", 1, "executor seed (folded with each job's signature)")
		scale       = flag.Float64("scale", 0.2, "scale-model cache factor for the simulated cluster")
		debugAddr   = flag.String("debug-addr", "", "serve /metrics and /trace on this address")
		nodes       = flag.String("nodes", "", "elastic membership: name:class[:weight],... (empty = membership off)")
	)
	flag.Parse()
	if err := run(*listen, *cacheDir, *queueDepth, *maxInflight, *tenantMax, *budget, *weights, *chaosProf, *seed, *scale, *debugAddr, *nodes); err != nil {
		fmt.Fprintf(os.Stderr, "hetserve: %v\n", err)
		os.Exit(1)
	}
}

func run(listen, cacheDir string, queueDepth, maxInflight, tenantMax int, budget int64,
	weights, chaosProf string, seed int64, scale float64, debugAddr, nodes string) error {
	if scale < 0 {
		return fmt.Errorf("-scale %g is negative", scale)
	}
	w, err := server.ParseWeights(weights)
	if err != nil {
		return err
	}
	members, err := server.ParseMembers(nodes)
	if err != nil {
		return err
	}
	if chaosProf != "" {
		// Resolve the name before serving: the executor would otherwise
		// admit jobs and fail each one.
		if _, err := chaos.Named(chaosProf, seed); err != nil {
			return err
		}
	}
	var tel *telemetry.Telemetry
	var debug *http.Server
	if debugAddr != "" {
		tel = telemetry.New(telemetry.Options{})
		dln, err := net.Listen("tcp", debugAddr)
		if err != nil {
			return err
		}
		debug = &http.Server{Handler: telemetry.Handler(tel)}
		go func() {
			if err := debug.Serve(dln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "hetserve: debug server: %v\n", err)
			}
		}()
		fmt.Printf("hetserve: metrics on http://%s/metrics\n", dln.Addr())
	}

	xcfg := server.SimExecutorConfig{Scale: scale, Seed: seed, ChaosProfile: chaosProf}
	probe := server.NewSimExecutor(xcfg)
	store, err := server.NewCache(cacheDir, probe.Fingerprint())
	if err != nil {
		return err
	}
	if cacheDir != "" {
		fmt.Printf("hetserve: decision cache %s (%d warm entries)\n", store.Path(), store.Len())
		if st := store.Status(); st != "" {
			fmt.Printf("hetserve: cache rejected, starting cold: %s\n", st)
		}
	}
	xcfg.Store = store
	xcfg.Telemetry = tel
	exec := server.NewSimExecutor(xcfg)
	rs := server.New(server.Config{
		QueueDepth:        queueDepth,
		MaxInFlight:       maxInflight,
		TenantMaxInFlight: tenantMax,
		TenantIterBudget:  budget,
		Weights:           w,
		Executor:          exec,
		Telemetry:         tel,
		Members:           members,
		Logf:              func(f string, a ...any) { fmt.Printf(f+"\n", a...) },
	})
	if len(members) > 0 {
		fmt.Printf("hetserve: elastic membership with %d nodes\n", len(members))
	}

	srv := &rpc.Server{Name: "hetserve", Telemetry: tel}
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

	fmt.Printf("hetserve: serving on %s (queue %d, in-flight %d)\n", ln.Addr(), queueDepth, maxInflight)
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
