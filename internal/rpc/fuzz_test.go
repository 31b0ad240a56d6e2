package rpc

import (
	"bytes"
	"encoding/gob"
	"net"
	"testing"
	"time"
)

// connTimeout bounds every wait on the fuzzed connection: the handler
// must answer or hang up well inside it.
const connTimeout = 10 * time.Second

// fuzzServer is a Server whose one task, echo, answers arg·(hi−lo) at
// once whatever range it is handed.
func fuzzServer(t *testing.T) *Server {
	t.Helper()
	srv := &Server{Name: "fuzz"}
	err := srv.Handle("echo", func(lo, hi int, arg float64, _ map[string]string) (float64, map[string]string, error) {
		return arg * float64(hi-lo), nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// serveConn runs srv's connection handler on one end of a pipe and
// returns the other end, and a channel closed once the handler has
// returned and hung up.
func serveConn(srv *Server) (net.Conn, chan struct{}) {
	client, conn := net.Pipe()
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.handle(conn)
		conn.Close()
	}()
	return client, served
}

// hungUp waits, up to connTimeout, for a handler serveConn started to
// return.
func hungUp(served chan struct{}) bool {
	select {
	case <-served:
		return true
	case <-time.After(connTimeout):
		return false
	}
}

// encodeRequests is the byte stream a well-formed client sends for reqs.
func encodeRequests(f *testing.F, reqs ...request) []byte {
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	for _, req := range reqs {
		if err := enc.Encode(req); err != nil {
			f.Fatal(err)
		}
	}
	return buf.Bytes()
}

// wholeRequests counts the requests a handler decodes from data before
// the stream ends or breaks; a Close request ends it. long reports one
// that would run a globally registered task over a long range, which
// takes as long as it is told to.
func wholeRequests(data []byte) (n int, long bool) {
	dec := gob.NewDecoder(bytes.NewReader(data))
	for {
		var req request
		if dec.Decode(&req) != nil {
			return n, false
		}
		n++
		if _, ok := lookup(req.Task); ok && req.Hi > req.Lo && uint(req.Hi-req.Lo) > 1<<16 {
			return n, true
		}
		if req.Close {
			return n, false
		}
	}
}

// FuzzServerConn feeds arbitrary client bytes to a Server's connection
// handler. Whatever arrives, the handler must not panic, must answer
// every whole request it decodes or hang up, must return once the
// client hangs up, and must then serve a fresh, well-formed client.
func FuzzServerConn(f *testing.F) {
	valid := encodeRequests(f, request{ID: 1, Task: "echo", Lo: 0, Hi: 4, Arg: 2})
	f.Add(valid)
	f.Add(encodeRequests(f,
		request{ID: 1, Task: "echo", Hi: 2, Arg: 1, Meta: map[string]string{"k": "v"}},
		request{ID: 2, Task: "nope", Hi: 1},
		request{ID: 3, Close: true}))
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-1])
	f.Add(valid[:1])
	// Length prefixes past gob's limit and just under it.
	f.Add([]byte{0xf8, 0x7f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0xfc, 0x3f, 0xff, 0xff, 0xff, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		want, long := wholeRequests(data)
		if long {
			t.Skip("runs a registered task over a long range")
		}
		srv := fuzzServer(t)
		client, served := serveConn(srv)
		answered := make(chan struct{})
		go func() {
			dec := gob.NewDecoder(client)
			var h hello
			err := dec.Decode(&h)
			for n := 0; err == nil; n++ {
				if n == want {
					close(answered)
				}
				var resp response
				err = dec.Decode(&resp)
			}
		}()
		client.SetWriteDeadline(time.Now().Add(connTimeout))
		client.Write(data) // returns once the handler has read it all, or hung up
		select {
		case <-answered:
		case <-served:
		case <-time.After(connTimeout):
			t.Fatalf("handler neither answered %d whole requests nor hung up", want)
		}
		client.Close()
		if !hungUp(served) {
			t.Fatal("handler still running after the client hung up")
		}

		client, served = serveConn(srv)
		defer func() {
			client.Close()
			if !hungUp(served) {
				t.Error("fresh client: handler still running after the client hung up")
			}
		}()
		client.SetDeadline(time.Now().Add(connTimeout))
		dec := gob.NewDecoder(client)
		var h hello
		var resp response
		if err := dec.Decode(&h); err != nil {
			t.Fatalf("fresh client: hello: %v", err)
		}
		if err := gob.NewEncoder(client).Encode(request{ID: 7, Task: "echo", Lo: 1, Hi: 4, Arg: 2}); err != nil {
			t.Fatalf("fresh client: send: %v", err)
		}
		if err := dec.Decode(&resp); err != nil {
			t.Fatalf("fresh client: receive: %v", err)
		}
		if resp.ID != 7 || resp.Err != "" || resp.Partial != 6 {
			t.Fatalf("fresh client got %+v, want ID 7, partial 6", resp)
		}
	})
}
