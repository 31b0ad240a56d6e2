package runconfig

import (
	"flag"
	"fmt"
	"strings"

	"hetmp/internal/chaos"
	"hetmp/internal/server"
)

// ServeFlagNames are the serving flags RegisterServe adds: the settings
// of the simulated region server that hetserve runs and hetload drives.
var ServeFlagNames = []string{"queue-depth", "max-inflight", "tenant-budget", "weights", "chaos-profile", "seed", "cache-dir", "nodes"}

// ServeFlags holds the serving flag values of one command.
type ServeFlags struct {
	cfg            server.SimServerConfig
	weights, nodes string
}

// RegisterServe adds the serving flags to fs, with queueDepth as the
// -queue-depth default: hetserve's 256, or hetload's 0, which a load
// run reads as its job count.
func RegisterServe(fs *flag.FlagSet, queueDepth int) *ServeFlags {
	f := &ServeFlags{}
	depthUsage := "bounded admission queue depth (global)"
	if queueDepth == 0 {
		depthUsage += " (0 = the job count, so preload admits everything)"
	}
	fs.IntVar(&f.cfg.QueueDepth, "queue-depth", queueDepth, depthUsage)
	fs.IntVar(&f.cfg.MaxInFlight, "max-inflight", 8, "maximum concurrently executing jobs")
	fs.Int64Var(&f.cfg.TenantIterBudget, "tenant-budget", 0, "per-tenant iteration budget per window (0 = unlimited)")
	fs.StringVar(&f.weights, "weights", "", "per-tenant fair-share weights, tenant=w,tenant=w (default weight 1)")
	fs.StringVar(&f.cfg.ChaosProfile, "chaos-profile", "", "run every job under this chaos profile: "+strings.Join(chaos.Profiles(), " | "))
	fs.Int64Var(&f.cfg.Seed, "seed", 1, "executor seed, folded with each job's signature (hetload: also the workload's)")
	fs.StringVar(&f.cfg.CacheDir, "cache-dir", "", "persist the shared decision cache in this directory (empty = in-memory only)")
	fs.StringVar(&f.nodes, "nodes", "", "elastic membership: name:class[:weight],... (empty = membership off)")
	return f
}

// Server validates the flags and returns the server they configure. A
// bad weight, member list or chaos profile fails naming its flag,
// before anything is built.
func (f *ServeFlags) Server() (server.SimServerConfig, error) {
	cfg := f.cfg
	var err error
	if cfg.Weights, err = server.ParseWeights(f.weights); err != nil {
		return cfg, fmt.Errorf("-weights: %w", err)
	}
	if cfg.Members, err = server.ParseMembers(f.nodes); err != nil {
		return cfg, fmt.Errorf("-nodes: %w", err)
	}
	if cfg.ChaosProfile != "" {
		if _, err := chaos.Named(cfg.ChaosProfile, cfg.Seed); err != nil {
			return cfg, fmt.Errorf("-chaos-profile: %w", err)
		}
	}
	return cfg, nil
}
