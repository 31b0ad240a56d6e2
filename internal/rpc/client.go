package rpc

import (
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// remoteError is an application-level error reported by a worker (the
// task ran — or was rejected — and the worker answered with an error
// string). Unlike transport errors it is not retried: the worker is
// healthy, the request itself is bad.
type remoteError struct {
	worker string
	msg    string
}

func (e *remoteError) Error() string { return fmt.Sprintf("rpc: %s: %s", e.worker, e.msg) }

// worker is the pool's view of one connected server. mu guards the
// fields below it and is never held across I/O: a mid-run reconnect
// replaces the connection triple while Pool.Close may race to shut it
// down, and closeConn must be able to cut an in-flight call.
type worker struct {
	addr, name string

	// xmu is the exchange lock: the pool holds it for one chunk's send,
	// receive and retries, so concurrent Runs never decode each other's
	// responses or re-dial under each other's calls.
	xmu sync.Mutex

	mu   sync.Mutex
	conn net.Conn
	enc  *gob.Encoder
	dec  *gob.Decoder
	next uint64
	// rates is the pool's probe cache: task → EWMA of this worker's
	// measured iterations per second (see observe). It lives and dies
	// with the worker: adopt keeps it, a dropped worker takes it along,
	// a re-dialed one starts empty. There is no other invalidation.
	rates map[string]float64
	tel   *workerTel // what begin last resolved
}

const handshakeTimeout = 5 * time.Second

// dialWorker connects and handshakes with one worker address.
func dialWorker(addr string) (*worker, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rpc: dial %s: %w", addr, err)
	}
	conn.SetDeadline(time.Now().Add(handshakeTimeout))
	w := &worker{addr: addr, conn: conn, enc: gob.NewEncoder(conn), dec: gob.NewDecoder(conn), rates: map[string]float64{}}
	var h hello
	if err := w.dec.Decode(&h); err != nil {
		conn.Close()
		return nil, fmt.Errorf("rpc: handshake with %s: %w", addr, err)
	}
	if h.Version != protocolVersion {
		conn.Close()
		return nil, fmt.Errorf("rpc: %s speaks protocol %d, want %d", addr, h.Version, protocolVersion)
	}
	conn.SetDeadline(time.Time{})
	w.name = h.Name
	if w.name == "" {
		w.name = addr
	}
	return w, nil
}

// call executes one chunk synchronously. A timeout > 0 bounds the
// whole exchange via connection deadlines; on expiry the connection is
// unusable (a late response would desynchronize the gob stream) and
// the caller must reconnect before retrying.
func (w *worker) call(task string, lo, hi int, arg float64, meta map[string]string, closing bool, timeout time.Duration) (response, error) {
	w.mu.Lock()
	conn, enc, dec := w.conn, w.enc, w.dec
	w.next++
	id := w.next
	w.mu.Unlock()
	if conn == nil {
		return response{}, fmt.Errorf("rpc: %s: connection closed", w.name)
	}
	if timeout > 0 {
		conn.SetDeadline(time.Now().Add(timeout))
		defer conn.SetDeadline(time.Time{})
	}
	req := request{ID: id, Task: task, Lo: lo, Hi: hi, Arg: arg, Meta: meta, Close: closing}
	if err := enc.Encode(req); err != nil {
		return response{}, fmt.Errorf("rpc: send to %s: %w", w.name, err)
	}
	var resp response
	if err := dec.Decode(&resp); err != nil {
		return response{}, fmt.Errorf("rpc: receive from %s: %w", w.name, err)
	}
	if resp.ID != id {
		return response{}, fmt.Errorf("rpc: %s answered request %d with id %d", w.name, id, resp.ID)
	}
	if resp.Err != "" {
		// The response itself still carries any metadata the handler
		// attached (error-kind tags for typed client-side mapping), so
		// return it alongside the error.
		return resp, &remoteError{worker: w.name, msg: resp.Err}
	}
	return resp, nil
}

// adopt replaces w's connection with a freshly dialed one.
func (w *worker) adopt(fresh *worker) {
	w.mu.Lock()
	if w.conn != nil {
		w.conn.Close()
	}
	w.conn, w.enc, w.dec = fresh.conn, fresh.enc, fresh.dec
	w.next = 0
	w.mu.Unlock()
}

func (w *worker) closeConn() {
	w.mu.Lock()
	if w.conn != nil {
		w.conn.Close()
		w.conn, w.enc, w.dec = nil, nil, nil
	}
	w.mu.Unlock()
}

// Client is a single-connection caller for one server: the host-API
// side of a service built on this transport (a region-server tenant,
// a control plane poking a daemon). Unlike Pool it does no probing,
// apportionment or retrying — one Call is one request/response
// exchange — so a service's admission decisions are visible to the
// caller instead of being retried away. A Client serializes its calls;
// use one Client per in-flight request stream.
type Client struct {
	w      *worker
	mu     sync.Mutex // serializes Call/Close on the single connection
	closed bool
}

// DialClient connects and handshakes with one server address.
func DialClient(addr string) (*Client, error) {
	w, err := dialWorker(addr)
	if err != nil {
		return nil, err
	}
	return &Client{w: w}, nil
}

// Name returns the server's advertised name.
func (c *Client) Name() string { return c.w.name }

// Call executes one registered task remotely. A timeout > 0 bounds the
// whole exchange; on expiry the connection is closed and the Client is
// no longer usable (gob streams cannot be resynchronized).
func (c *Client) Call(task string, lo, hi int, arg float64, timeout time.Duration) (float64, error) {
	partial, _, err := c.CallMeta(task, lo, hi, arg, nil, timeout)
	return partial, err
}

// CallMeta is Call with request metadata, for servers exposing
// MetaTask handlers. The returned metadata is valid even when err is
// an application-level error — handlers tag rejections there (e.g.
// a queue-full error kind) so callers can map them back to typed
// errors.
func (c *Client) CallMeta(task string, lo, hi int, arg float64, meta map[string]string, timeout time.Duration) (float64, map[string]string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, nil, fmt.Errorf("rpc: client for %s: connection closed", c.w.name)
	}
	resp, err := c.w.call(task, lo, hi, arg, meta, false, timeout)
	if err != nil {
		var re *remoteError
		if !errors.As(err, &re) {
			// Transport failure: the stream is unusable.
			c.closed = true
			c.w.closeConn()
		}
		return resp.Partial, resp.Meta, err
	}
	return resp.Partial, resp.Meta, nil
}

// Close hangs up.
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	c.w.closeConn()
}
