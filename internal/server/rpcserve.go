package server

import (
	"encoding/gob"
	"errors"
	"fmt"
	"strings"
	"time"

	"hetmp/internal/rpc"
)

// TaskSubmit is the one RPC task the daemon exposes: submit a job and
// block until it completes.
const TaskSubmit = "hetmp.submit"

// Metadata keys of a submit call. The request carries one gob-encoded
// Spec, the reply one gob-encoded Result, and a refusal an error-kind
// tag, which lets the typed admission errors survive the wire (an rpc
// remote error is a string; the tag maps it back).
const (
	specKey    = "spec"
	resultKey  = "result"
	errKindKey = "err_kind"
)

// errKinds maps the typed admission errors to their wire tags (and
// back). All sentinels are distinct, so a linear walk is fine.
var errKinds = []struct {
	kind string
	err  error
}{
	{"queue_full", ErrQueueFull},
	{"draining", ErrDraining},
	{"stopped", ErrStopped},
	{"bad_spec", ErrBadSpec},
}

// Bind registers TaskSubmit on an rpc.Server. The handler blocks until
// the job completes (the rpc layer runs one goroutine per connection,
// so concurrent tenants need one connection each — exactly the Client
// model).
func Bind(srv *rpc.Server, rs *RegionServer) error {
	return srv.Handle(TaskSubmit, func(lo, hi int, arg float64, meta map[string]string) (float64, map[string]string, error) {
		var sp Spec
		if err := gob.NewDecoder(strings.NewReader(meta[specKey])).Decode(&sp); err != nil {
			return 0, nil, fmt.Errorf("server: submit decode: %w", err)
		}
		res, err := rs.Submit(sp)
		if err != nil {
			for _, k := range errKinds {
				if errors.Is(err, k.err) {
					return 0, map[string]string{errKindKey: k.kind}, err
				}
			}
			return 0, nil, err
		}
		if res.Err != nil {
			return 0, nil, res.Err
		}
		var out strings.Builder
		if err := gob.NewEncoder(&out).Encode(res); err != nil {
			return 0, nil, fmt.Errorf("server: result encode: %w", err)
		}
		return float64(res.VirtualNs), map[string]string{resultKey: out.String()}, nil
	})
}

// SubmitRemote submits one job through an rpc.Client and maps tagged
// admission rejections back to the typed errors (errors.Is works
// across the wire). The call's range is the job's iteration count, so
// the daemon's rpc telemetry counts submitted iterations.
func SubmitRemote(c *rpc.Client, sp Spec, timeout time.Duration) (Result, error) {
	var req strings.Builder
	if err := gob.NewEncoder(&req).Encode(sp); err != nil {
		return Result{}, fmt.Errorf("server: submit encode: %w", err)
	}
	_, meta, err := c.CallMeta(TaskSubmit, 0, sp.withDefaults().Iterations, 0, map[string]string{specKey: req.String()}, timeout)
	if err != nil {
		for _, k := range errKinds {
			if k.kind == meta[errKindKey] {
				return Result{}, fmt.Errorf("remote %s/%s: %w", sp.Tenant, sp.Region, k.err)
			}
		}
		return Result{}, err
	}
	var res Result
	if err := gob.NewDecoder(strings.NewReader(meta[resultKey])).Decode(&res); err != nil {
		return Result{}, fmt.Errorf("server: result decode: %w", err)
	}
	return res, nil
}
