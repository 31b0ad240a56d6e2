// Command hetworker is an RPC worker daemon: it serves the built-in
// demo tasks (pi, blackscholes, mandelbrot) to hetmp RPC pools. Use
// -throttle to emulate a slower node (e.g. a low-power ISA), and the
// -fault-* flags to inject failures when exercising a pool's fault
// tolerance against real processes.
//
// Usage:
//
//	hetworker -listen :7001 -name xeonish
//	hetworker -listen :7002 -name armish -throttle 4ms
//	hetworker -listen :7003 -name chaos -fault-drop-after 5
//	hetworker -listen :7004 -name molasses -fault-stall-after 2 -fault-stall-for 30s
//
// SIGINT/SIGTERM shut the worker down gracefully (stop accepting,
// close connections, wait for in-flight handlers).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"hetmp/internal/rpc"
	"hetmp/internal/telemetry"
)

func main() {
	var (
		listen    = flag.String("listen", ":7001", "address to listen on")
		name      = flag.String("name", "", "worker name reported to pools (default: listen address)")
		throttle  = flag.Duration("throttle", 0, "extra delay per 1000 iterations (emulates a slower node)")
		debugAddr = flag.String("debug-addr", "", "serve /metrics (Prometheus text) and /trace (Chrome trace JSON) on this HTTP address")

		dropAfter    = flag.Int("fault-drop-after", 0, "close the connection instead of serving the Nth request onward (0 = off)")
		dropCount    = flag.Int("fault-drop-count", 0, "with -fault-drop-after, only drop this many requests (0 = all)")
		stallAfter   = flag.Int("fault-stall-after", 0, "stall requests from the Nth onward (needs -fault-stall-for)")
		stallFor     = flag.Duration("fault-stall-for", 0, "how long to stall each faulted request")
		corruptAfter = flag.Int("fault-corrupt-after", 0, "answer the Nth request onward with a corrupt response id (0 = off)")
	)
	flag.Parse()
	var fault *rpc.FaultConfig
	if *dropAfter > 0 || *stallFor > 0 || *corruptAfter > 0 {
		fault = &rpc.FaultConfig{
			DropAfter:    *dropAfter,
			DropCount:    *dropCount,
			StallAfter:   *stallAfter,
			StallFor:     *stallFor,
			CorruptAfter: *corruptAfter,
		}
	}
	if err := run(*listen, *name, *throttle, fault, *debugAddr); err != nil {
		fmt.Fprintln(os.Stderr, "hetworker:", err)
		os.Exit(1)
	}
}

func run(listen, name string, throttle time.Duration, fault *rpc.FaultConfig, debugAddr string) error {
	rpc.RegisterBuiltins()
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	var tel *telemetry.Telemetry
	var debug *http.Server
	if debugAddr != "" {
		tel = telemetry.New(telemetry.Options{})
		var bound net.Addr
		if debug, bound, err = telemetry.ServeDebug("hetworker", debugAddr, tel); err != nil {
			return err
		}
		// Log the bound address, not the flag value: with ":0" the OS
		// picks the port and this line is the only way to find it.
		fmt.Printf("hetworker %q debug endpoint on http://%s/metrics\n", name, bound)
	}
	srv := &rpc.Server{Name: name, Cores: runtime.GOMAXPROCS(0), Throttle: throttle, Fault: fault, Telemetry: tel}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Printf("hetworker %q: %v, shutting down\n", name, s)
		if debug != nil {
			// Drain in-flight scrapes before tearing the worker down so
			// a final /metrics or /trace pull is never cut mid-body.
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			if err := debug.Shutdown(ctx); err != nil {
				debug.Close()
			}
			cancel()
			fmt.Printf("hetworker %q: debug server stopped\n", name)
		}
		srv.Close()
	}()

	mode := ""
	if fault != nil {
		mode = " [fault injection active]"
	}
	fmt.Printf("hetworker %q serving on %s (throttle %v)%s\n", name, ln.Addr(), throttle, mode)
	if err := srv.Serve(ln); err != nil && !errors.Is(err, rpc.ErrServerClosed) {
		return err
	}
	return nil
}
