package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"time"

	"hetmp/internal/rpc"
)

// RPC task names the daemon exposes.
const (
	TaskSubmit = "hetmp.submit"
	TaskStats  = "hetmp.stats"
	TaskResume = "hetmp.resume"
	TaskDrain  = "hetmp.drain"
	// Membership control plane: elastic add/remove/cordon/uncordon of
	// serving nodes on a live daemon.
	TaskNodeAdd      = "hetmp.node-add"
	TaskNodeRemove   = "hetmp.node-remove"
	TaskNodeCordon   = "hetmp.node-cordon"
	TaskNodeUncordon = "hetmp.node-uncordon"
)

// Error-kind tags carried in response metadata so typed admission and
// membership errors survive the wire (an rpc remote error is a
// string; the tag maps it back).
const (
	errKindKey          = "err_kind"
	errKindFull         = "queue_full"
	errKindDraining     = "draining"
	errKindStopped      = "stopped"
	errKindBadSpec      = "bad_spec"
	errKindUnknownNode  = "unknown_node"
	errKindNodeExists   = "node_exists"
	errKindNodeDraining = "node_draining"
	errKindLastNode     = "last_node"
)

// errKinds maps the typed sentinel errors to their wire tags (and
// back). Order matters only for kindOf specificity — all sentinels
// are distinct, so a linear walk is fine.
var errKinds = []struct {
	kind string
	err  error
}{
	{errKindFull, ErrQueueFull},
	{errKindDraining, ErrDraining},
	{errKindStopped, ErrStopped},
	{errKindBadSpec, ErrBadSpec},
	{errKindUnknownNode, ErrUnknownNode},
	{errKindNodeExists, ErrNodeExists},
	{errKindNodeDraining, ErrNodeDraining},
	{errKindLastNode, ErrLastNode},
}

// kindMeta tags a typed error for the wire; empty map when the error
// is not one of the sentinels.
func kindMeta(err error) map[string]string {
	out := map[string]string{}
	for _, k := range errKinds {
		if errors.Is(err, k.err) {
			out[errKindKey] = k.kind
			break
		}
	}
	return out
}

// typedFromKind maps a wire tag back to its sentinel (nil for an
// unknown or empty tag — the caller falls through to the raw rpc
// error).
func typedFromKind(kind string) error {
	for _, k := range errKinds {
		if k.kind == kind {
			return k.err
		}
	}
	return nil
}

// Bind registers the serving tasks on an rpc.Server. The submit
// handler blocks until the job completes (the rpc layer runs one
// goroutine per connection, so concurrent tenants need one connection
// each — exactly the Client model).
func Bind(srv *rpc.Server, rs *RegionServer) error {
	submit := func(lo, hi int, arg float64, meta map[string]string) (float64, map[string]string, error) {
		sp, err := specFromMeta(meta)
		if err != nil {
			return 0, nil, err
		}
		res, err := rs.Submit(sp)
		if err != nil {
			return 0, kindMeta(err), err
		}
		if res.Err != nil {
			return 0, map[string]string{}, res.Err
		}
		return float64(res.VirtualNs), resultToMeta(res), nil
	}
	stats := func(lo, hi int, arg float64, meta map[string]string) (float64, map[string]string, error) {
		st := rs.Stats()
		data, err := json.Marshal(st)
		if err != nil {
			return 0, nil, err
		}
		return float64(st.Completed), map[string]string{"stats": string(data)}, nil
	}
	resume := func(lo, hi int, arg float64, meta map[string]string) (float64, map[string]string, error) {
		rs.Resume()
		return 0, nil, nil
	}
	drain := func(lo, hi int, arg float64, meta map[string]string) (float64, map[string]string, error) {
		rs.Drain()
		return 0, nil, nil
	}
	// Membership ops: the node name (and for add, class/weight) ride
	// the request metadata; typed refusals ride back as err_kind tags.
	nodeAdd := func(lo, hi int, arg float64, meta map[string]string) (float64, map[string]string, error) {
		m := Member{Name: meta["node"], Class: meta["class"], Weight: 1}
		if v := meta["weight"]; v != "" {
			w, err := strconv.ParseFloat(v, 64)
			if err != nil || w <= 0 {
				return 0, nil, fmt.Errorf("server: bad node weight %q", v)
			}
			m.Weight = w
		}
		if err := rs.AddNode(m); err != nil {
			return 0, kindMeta(err), err
		}
		return 0, nil, nil
	}
	nodeOp := func(op func(string) error) rpc.MetaTask {
		return func(lo, hi int, arg float64, meta map[string]string) (float64, map[string]string, error) {
			if err := op(meta["node"]); err != nil {
				return 0, kindMeta(err), err
			}
			return 0, nil, nil
		}
	}
	for _, reg := range []struct {
		name string
		h    rpc.MetaTask
	}{
		{TaskSubmit, submit}, {TaskStats, stats}, {TaskResume, resume}, {TaskDrain, drain},
		{TaskNodeAdd, nodeAdd},
		{TaskNodeRemove, nodeOp(rs.RemoveNode)},
		{TaskNodeCordon, nodeOp(rs.CordonNode)},
		{TaskNodeUncordon, nodeOp(rs.UncordonNode)},
	} {
		if err := srv.Handle(reg.name, reg.h); err != nil {
			return err
		}
	}
	return nil
}

func specToMeta(sp Spec) map[string]string {
	sp = sp.withDefaults()
	return map[string]string{
		"tenant":      sp.Tenant,
		"region":      sp.Region,
		"iterations":  strconv.Itoa(sp.Iterations),
		"invocations": strconv.Itoa(sp.Invocations),
		"opsperbyte":  strconv.FormatFloat(sp.OpsPerByte, 'g', -1, 64),
		"pages":       strconv.Itoa(sp.Pages),
		"priority":    strconv.Itoa(sp.Priority),
	}
}

func specFromMeta(meta map[string]string) (Spec, error) {
	if meta == nil {
		return Spec{}, fmt.Errorf("server: submit without metadata")
	}
	sp := Spec{Tenant: meta["tenant"], Region: meta["region"]}
	var err error
	geti := func(key string) int {
		v := meta[key]
		if v == "" || err != nil {
			return 0
		}
		n, e := strconv.Atoi(v)
		if e != nil {
			err = fmt.Errorf("server: bad %s %q", key, v)
		}
		return n
	}
	sp.Iterations = geti("iterations")
	sp.Invocations = geti("invocations")
	sp.Pages = geti("pages")
	sp.Priority = geti("priority")
	if v := meta["opsperbyte"]; v != "" && err == nil {
		f, e := strconv.ParseFloat(v, 64)
		if e != nil {
			err = fmt.Errorf("server: bad opsperbyte %q", v)
		}
		sp.OpsPerByte = f
	}
	if err != nil {
		return Spec{}, err
	}
	return sp, nil
}

func resultToMeta(r Result) map[string]string {
	return map[string]string{
		"sig":         r.Sig,
		"seq":         strconv.Itoa(r.Seq),
		"wait_ns":     strconv.FormatInt(int64(r.Wait), 10),
		"service_ns":  strconv.FormatInt(int64(r.Service), 10),
		"virtual_ns":  strconv.FormatInt(r.VirtualNs, 10),
		"faults":      strconv.FormatInt(r.Faults, 10),
		"probes":      strconv.Itoa(r.Probes),
		"predictions": strconv.Itoa(r.Predictions),
		"warm":        strconv.FormatBool(r.Warm),
		"xtwarm":      strconv.FormatBool(r.CrossTenantWarm),
		"chunks":      strconv.Itoa(r.Chunks),
		"rehomed":     strconv.Itoa(r.Rehomed),
	}
}

func resultFromMeta(tenant, region string, meta map[string]string) Result {
	geti64 := func(key string) int64 {
		n, _ := strconv.ParseInt(meta[key], 10, 64)
		return n
	}
	geti := func(key string) int {
		n, _ := strconv.Atoi(meta[key])
		return n
	}
	return Result{
		Tenant:          tenant,
		Region:          region,
		Sig:             meta["sig"],
		Seq:             geti("seq"),
		Wait:            time.Duration(geti64("wait_ns")),
		Service:         time.Duration(geti64("service_ns")),
		VirtualNs:       geti64("virtual_ns"),
		Faults:          geti64("faults"),
		Probes:          geti("probes"),
		Predictions:     geti("predictions"),
		Warm:            meta["warm"] == "true",
		CrossTenantWarm: meta["xtwarm"] == "true",
		Chunks:          geti("chunks"),
		Rehomed:         geti("rehomed"),
	}
}

// SubmitRemote submits one job through an rpc.Client and maps tagged
// admission rejections back to the typed errors (errors.Is works
// across the wire).
func SubmitRemote(c *rpc.Client, sp Spec, timeout time.Duration) (Result, error) {
	_, meta, err := c.CallMeta(TaskSubmit, 0, sp.withDefaults().Iterations, 0, specToMeta(sp), timeout)
	if err != nil {
		if typed := typedFromKind(meta[errKindKey]); typed != nil {
			return Result{}, fmt.Errorf("remote %s/%s: %w", sp.Tenant, sp.Region, typed)
		}
		return Result{}, err
	}
	return resultFromMeta(sp.Tenant, sp.Region, meta), nil
}

// AddNodeRemote adds a serving node to a remote daemon's membership.
// Typed refusals (ErrNodeExists, ...) survive the wire: errors.Is
// works on the returned error.
func AddNodeRemote(c *rpc.Client, m Member, timeout time.Duration) error {
	meta := map[string]string{"node": m.Name, "class": m.Class}
	if m.Weight > 0 {
		meta["weight"] = strconv.FormatFloat(m.Weight, 'g', -1, 64)
	}
	return nodeOpRemote(c, TaskNodeAdd, m.Name, meta, timeout)
}

// RemoveNodeRemote drains and removes a remote daemon's node
// (ErrUnknownNode / ErrNodeDraining / ErrLastNode survive the wire).
func RemoveNodeRemote(c *rpc.Client, name string, timeout time.Duration) error {
	return nodeOpRemote(c, TaskNodeRemove, name, map[string]string{"node": name}, timeout)
}

// CordonNodeRemote cordons a remote daemon's node.
func CordonNodeRemote(c *rpc.Client, name string, timeout time.Duration) error {
	return nodeOpRemote(c, TaskNodeCordon, name, map[string]string{"node": name}, timeout)
}

// UncordonNodeRemote lifts a remote cordon.
func UncordonNodeRemote(c *rpc.Client, name string, timeout time.Duration) error {
	return nodeOpRemote(c, TaskNodeUncordon, name, map[string]string{"node": name}, timeout)
}

func nodeOpRemote(c *rpc.Client, task, name string, meta map[string]string, timeout time.Duration) error {
	_, out, err := c.CallMeta(task, 0, 0, 0, meta, timeout)
	if err != nil {
		if typed := typedFromKind(out[errKindKey]); typed != nil {
			return fmt.Errorf("remote node %s: %w", name, typed)
		}
		return err
	}
	return nil
}

// StatsRemote fetches a Stats snapshot through an rpc.Client.
func StatsRemote(c *rpc.Client, timeout time.Duration) (Stats, error) {
	_, meta, err := c.CallMeta(TaskStats, 0, 0, 0, nil, timeout)
	if err != nil {
		return Stats{}, err
	}
	var st Stats
	if err := json.Unmarshal([]byte(meta["stats"]), &st); err != nil {
		return Stats{}, fmt.Errorf("server: stats decode: %w", err)
	}
	return st, nil
}

// ResumeRemote opens a paused remote server's dispatch gate.
func ResumeRemote(c *rpc.Client, timeout time.Duration) error {
	_, _, err := c.CallMeta(TaskResume, 0, 0, 0, nil, timeout)
	return err
}

// DrainRemote gracefully drains the remote server.
func DrainRemote(c *rpc.Client, timeout time.Duration) error {
	_, _, err := c.CallMeta(TaskDrain, 0, 0, 0, nil, timeout)
	return err
}
