package main

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"hetmp/internal/telemetry"
)

// span is one benchmark-side interval around a call into a layer.
// Spans are recorded from the benchmark's own files only: the program
// under test is not edited to emit them.
type span struct {
	name       string
	start, end time.Duration // wall clock since the recorder's epoch
	parent     int           // index of the causing span, -1 for a root
	track      int           // 0 = the generator; 1.. = executor slots
}

// recorder keeps spans in memory until the run ends. A nil *recorder is
// the untraced mode: begin and end do nothing.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	free  []int // released executor tracks, reused so concurrent spans never share one
	next  int   // next never-used executor track
}

func newRecorder() *recorder { return &recorder{epoch: time.Now(), next: 1} }

// begin opens a span on the generator's track and returns its id.
func (r *recorder) begin(name string, parent int) int {
	return r.beginOn(name, parent, 0)
}

func (r *recorder) beginOn(name string, parent, track int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, start: now, end: -1, parent: parent, track: track})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id].end = now
	r.mu.Unlock()
}

// acquireTrack hands a concurrent caller (an executor slot) a track no
// other open span is using, so spans on one track always nest.
func (r *recorder) acquireTrack() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.free); n > 0 {
		t := r.free[n-1]
		r.free = r.free[:n-1]
		return t
	}
	r.next++
	return r.next - 1
}

func (r *recorder) releaseTrack(t int) {
	r.mu.Lock()
	r.free = append(r.free, t)
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval that its child spans cover
// (overlapping children are counted once).
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		var covered time.Duration
		edge := s.start // everything before edge is already counted
		for _, k := range kids {
			lo, hi := spans[k].start, spans[k].end
			if lo < edge {
				lo = edge
			}
			if hi > s.end {
				hi = s.end
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.name] += (s.end - s.start) - covered
	}
	return out
}

// chromeTrace renders the spans as Chrome trace JSON through the
// repo's own tracer, and checks the result with its validator.
func chromeTrace(spans []span, workload string) ([]byte, error) {
	tel := telemetry.New(telemetry.Options{SpanCapacity: len(spans) + 1})
	tr := tel.Tracer()
	named := map[int]bool{}
	for i, s := range spans {
		if s.end < s.start {
			return nil, fmt.Errorf("span %d (%s) was never closed", i, s.name)
		}
		if !named[s.track] {
			named[s.track] = true
			thread := "generator"
			if s.track > 0 {
				thread = "executor slot " + strconv.Itoa(s.track)
			}
			tr.NameTrack(telemetry.Track{Pid: 1, Tid: s.track}, "benchmark "+workload, thread)
		}
		parent := "-"
		if s.parent >= 0 {
			parent = spans[s.parent].name
		}
		tr.Emit(telemetry.Track{Pid: 1, Tid: s.track}, s.name, s.start, s.end,
			telemetry.Arg{Key: "workload", Val: workload},
			telemetry.Arg{Key: "span", Val: strconv.Itoa(i)},
			telemetry.Arg{Key: "parent", Val: parent})
	}
	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err != nil {
		return nil, err
	}
	if err := telemetry.ValidateTrace(buf.Bytes()); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
