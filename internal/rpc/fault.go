package rpc

import "time"

// FaultConfig injects failures into a Server for testing the pool's
// fault tolerance. Request counts are cumulative across all
// connections (so a client that reconnects keeps hitting the fault).
type FaultConfig struct {
	// DropAfter, when > 0, makes the server close the connection
	// instead of serving the Nth request and every request after it.
	// DropCount limits how many consecutive requests are dropped
	// (0 = all of them); a finite count models a transient failure the
	// client's retry should survive.
	DropAfter int
	DropCount int
	// StallFor, when > 0, delays serving each request from the
	// StallAfter-th onward (minimum 1) by this duration — long enough
	// to trip a client deadline. The stall aborts early if the server
	// is closed.
	StallFor   time.Duration
	StallAfter int
	// CorruptAfter, when > 0, makes the server answer the Nth request
	// onward with a mismatched response ID.
	CorruptAfter int
	// ZeroElapsed reports ElapsedNs = 0 in every response, emulating a
	// clock too coarse to time a probe chunk.
	ZeroElapsed bool
}
