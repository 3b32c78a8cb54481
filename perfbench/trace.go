package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Headers carrying the op id and the caller's span id across the router
// to the node, so the node span can name its parent.
const (
	hdrOp   = "X-Perfbench-Op"
	hdrSpan = "X-Perfbench-Span"
)

// span is one timed interval. Spans of one operation share Op; Parent is
// the enclosing span's ID (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. Times are monotonic
// nanoseconds since the tracer was made.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span.
func (t *tracer) begin(name string, op, parent int64) span {
	return span{ID: t.next.Add(1), Parent: parent, Op: op, Name: name, Start: t.now()}
}

// finish records s and returns its duration in nanoseconds.
func (t *tracer) finish(s span) int64 {
	s.End = t.now()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.dur()
}

// timed runs fn inside a span and returns its duration in nanoseconds.
func (t *tracer) timed(name string, op, parent int64, fn func()) int64 {
	s := t.begin(name, op, parent)
	fn()
	return t.finish(s)
}

func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, f.Close()) }()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.all() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return w.Flush()
}

// tracedHandler records a span around every request that carries an op
// id, parented to the span named in hdrSpan, and passes its own span id on
// to the next hop.
func tracedHandler(name string, h http.Handler, t *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, err := strconv.ParseInt(r.Header.Get(hdrOp), 10, 64)
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64) // absent: a root span
		s := t.begin(name, op, parent)
		r.Header.Set(hdrSpan, strconv.FormatInt(s.ID, 10))
		h.ServeHTTP(w, r)
		t.finish(s)
	})
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children. Children may overlap each other (parallel
// work) or stick out of the parent; only the union of their intervals,
// clipped to the parent, is subtracted.
func selfTimes(spans []span) map[int64]int64 {
	byID := make(map[int64]span, len(spans))
	kids := make(map[int64][]span)
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for id, s := range byID {
		self[id] = s.dur() - covered(s, kids[id])
	}
	return self
}

// covered is the length of the union of the children's intervals within
// the parent's.
func covered(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo <= curHi:
			curHi = max(curHi, v.hi)
		default:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}
