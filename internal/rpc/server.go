package rpc

import (
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hetmp/internal/telemetry"
)

// ErrServerClosed is returned by Server.Serve and Server.Handle once
// Close has been called. A long-running daemon that cycles
// Serve/Close must construct a fresh Server per cycle; this error —
// instead of a silent nil return — is how a stale reuse surfaces.
var ErrServerClosed = errors.New("rpc: server closed")

// ErrDuplicateTask is returned by Server.Handle when the name is
// already registered on that server.
var ErrDuplicateTask = errors.New("rpc: duplicate task")

// Server is a worker daemon serving task executions.
type Server struct {
	// Name identifies the worker in pool statistics.
	Name string
	// Cores is the advertised parallelism (informational; execution is
	// currently one chunk at a time per connection).
	Cores int
	// Throttle adds a delay per 1000 iterations, emulating a slower
	// node (used by examples and tests to stand in for a low-power
	// ISA).
	Throttle time.Duration
	// Fault, when non-nil, injects failures (see FaultConfig). Set it
	// before Serve.
	Fault *FaultConfig
	// Telemetry, when non-nil, records served requests, executed
	// iterations, task latency, and injected faults — the data behind
	// hetworker's -debug-addr endpoint. Set it before Serve.
	Telemetry *telemetry.Telemetry

	mu       sync.Mutex
	ln       net.Listener
	wg       sync.WaitGroup
	closed   bool
	done     chan struct{}
	conns    map[net.Conn]struct{}
	handlers map[string]MetaTask
	served   atomic.Int64

	// Telemetry handles, resolved once in registerMetrics so the
	// per-request path never takes the registry mutex (hetmplint
	// telemetryhandle contract). Each is a valid nop when nil.
	reqCtr          *telemetry.Counter
	iterCtr         *telemetry.Counter
	taskHist        *telemetry.Histogram
	dropFaultCtr    *telemetry.Counter
	stallFaultCtr   *telemetry.Counter
	corruptFaultCtr *telemetry.Counter
}

// serverLabel is the telemetry label identifying this worker.
func (s *Server) serverLabel() telemetry.Label {
	name := s.Name
	if name == "" {
		name = "worker"
	}
	return telemetry.L("worker", name)
}

// registerMetrics pre-creates the server's metric series so a scrape
// sees them (at zero) before any request or fault has happened.
func (s *Server) registerMetrics() {
	if !s.Telemetry.Enabled() {
		return
	}
	m := s.Telemetry.Metrics()
	lbl := s.serverLabel()
	s.Telemetry.Tracer().NameTrack(telemetry.Track{}, "hetworker "+lbl.Val, "tasks")
	s.reqCtr = m.Counter("hetmp_rpc_server_requests_total", lbl)
	s.iterCtr = m.Counter("hetmp_rpc_server_iterations_total", lbl)
	s.taskHist = m.Histogram("hetmp_rpc_server_task_seconds", lbl)
	s.dropFaultCtr = m.Counter("hetmp_rpc_server_faults_injected_total", lbl, telemetry.L("kind", "drop"))
	s.stallFaultCtr = m.Counter("hetmp_rpc_server_faults_injected_total", lbl, telemetry.L("kind", "stall"))
	s.corruptFaultCtr = m.Counter("hetmp_rpc_server_faults_injected_total", lbl, telemetry.L("kind", "corrupt"))
}

// MetaTask is a per-server request handler: a Task that additionally
// sees (and may answer with) request metadata. It is how a service
// built on this transport — e.g. the region server's job submission
// endpoint — carries structured parameters that plain tasks have no
// field for. The returned error travels to the caller as an
// application-level error (not retried by pools).
type MetaTask func(lo, hi int, arg float64, meta map[string]string) (float64, map[string]string, error)

// Handle registers a per-server handler for name. Unlike the global
// Register it is safe for a long-running daemon: it returns
// ErrDuplicateTask on a duplicate name and ErrServerClosed after
// Close instead of panicking. Per-server handlers shadow the global
// task registry.
func (s *Server) Handle(name string, h MetaTask) error {
	if h == nil {
		return fmt.Errorf("rpc: Handle %q: nil handler", name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("rpc: Handle %q: %w", name, ErrServerClosed)
	}
	if s.handlers == nil {
		s.handlers = make(map[string]MetaTask)
	}
	if _, dup := s.handlers[name]; dup {
		return fmt.Errorf("rpc: Handle %q: %w", name, ErrDuplicateTask)
	}
	s.handlers[name] = h
	return nil
}

// handler returns the per-server handler for name, if any.
func (s *Server) handler(name string) (MetaTask, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.handlers[name]
	return h, ok
}

// Serve accepts connections on ln until Close is called, then returns
// ErrServerClosed (the net/http contract: callers filter it on clean
// shutdown). If Close was already called — including a previous
// Serve/Close cycle on the same Server — Serve closes ln and returns
// ErrServerClosed immediately: a Server serves at most one lifecycle,
// daemons must construct a fresh one per cycle.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.ln = ln
	s.mu.Unlock()
	s.registerMetrics()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				s.wg.Wait()
				return ErrServerClosed
			}
			return err
		}
		// Register the connection under the same critical section that
		// checks closed, so Close never misses a handler: wg.Add only
		// happens while !closed, and Close flips closed before waiting.
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		if s.conns == nil {
			s.conns = make(map[net.Conn]struct{})
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handle(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
			conn.Close()
		}()
	}
}

// Close stops accepting, closes open connections, and waits for
// in-flight handlers to return. It is idempotent: every call blocks
// until shutdown is complete. Calling Close before Serve makes the
// subsequent Serve return immediately.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	if s.done == nil {
		s.done = make(chan struct{})
	}
	close(s.done)
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	//hetmp:allow maporder -- gathered only to be closed once s.mu is released; every one is closed and wg.Wait joins their handlers, so the order is unobservable
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return err
}

// doneChan lazily creates the shutdown channel so a zero-value Server
// still works.
func (s *Server) doneChan() chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done == nil {
		s.done = make(chan struct{})
	}
	return s.done
}

func (s *Server) handle(conn net.Conn) {
	enc := gob.NewEncoder(conn)
	dec := gob.NewDecoder(conn)
	if err := enc.Encode(hello{Name: s.Name, Cores: s.Cores, Version: protocolVersion}); err != nil {
		return
	}
	for {
		var req request
		if err := dec.Decode(&req); err != nil {
			return
		}
		seq := int(s.served.Add(1))
		s.reqCtr.Inc()
		f := s.Fault
		if f != nil && f.DropAfter > 0 && seq >= f.DropAfter &&
			(f.DropCount <= 0 || seq < f.DropAfter+f.DropCount) {
			s.dropFaultCtr.Inc()
			return // hang up without replying
		}
		if f != nil && f.StallFor > 0 && seq >= max(1, f.StallAfter) {
			s.stallFaultCtr.Inc()
			select {
			case <-time.After(f.StallFor):
			case <-s.doneChan():
				return
			}
		}
		resp := s.execute(req)
		if f != nil {
			if f.ZeroElapsed {
				resp.ElapsedNs = 0
			}
			if f.CorruptAfter > 0 && seq >= f.CorruptAfter {
				s.corruptFaultCtr.Inc()
				resp.ID += 1 << 20
			}
		}
		if err := enc.Encode(resp); err != nil {
			return
		}
		if req.Close {
			return
		}
	}
}

func (s *Server) execute(req request) response {
	if h, ok := s.handler(req.Task); ok {
		return s.executeMeta(req, h)
	}
	if req.Hi <= req.Lo && !req.Close {
		return response{ID: req.ID}
	}
	if req.Close && req.Task == "" {
		return response{ID: req.ID}
	}
	task, ok := lookup(req.Task)
	if !ok {
		return response{ID: req.ID, Err: fmt.Sprintf("unknown task %q", req.Task)}
	}
	var spanStart time.Duration
	tr := s.Telemetry.Tracer()
	if tr != nil {
		spanStart = tr.WallNow()
	}
	start := time.Now()
	partial := task(req.Lo, req.Hi, req.Arg)
	if s.Throttle > 0 {
		iters := req.Hi - req.Lo
		time.Sleep(s.Throttle * time.Duration(iters) / 1000)
	}
	elapsed := time.Since(start)
	if tr != nil {
		tr.Emit(telemetry.Track{Pid: 0, Tid: 0}, "task "+req.Task, spanStart, tr.WallNow(),
			telemetry.Arg{Key: "lo", Val: fmt.Sprint(req.Lo)},
			telemetry.Arg{Key: "hi", Val: fmt.Sprint(req.Hi)})
		s.iterCtr.Add(int64(req.Hi - req.Lo))
		s.taskHist.Observe(elapsed)
	}
	return response{ID: req.ID, Partial: partial, ElapsedNs: elapsed.Nanoseconds()}
}

// executeMeta runs a per-server MetaTask handler for one request.
func (s *Server) executeMeta(req request, h MetaTask) response {
	start := time.Now()
	partial, meta, err := h(req.Lo, req.Hi, req.Arg, req.Meta)
	resp := response{ID: req.ID, Partial: partial, Meta: meta, ElapsedNs: time.Since(start).Nanoseconds()}
	if err != nil {
		resp.Err = err.Error()
	}
	if s.Telemetry.Enabled() {
		s.iterCtr.Add(int64(req.Hi - req.Lo))
		s.taskHist.Observe(time.Since(start))
	}
	return resp
}
