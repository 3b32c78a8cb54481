package main

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "client", Start: 0, End: 100},
		// Two overlapping children cover [10,50]; a third sticks out of the
		// parent and counts only up to its end.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		// A grandchild reduces its parent, not the root.
		{ID: 5, Parent: 3, Name: "d", Start: 25, End: 45},
		// A child nested entirely inside another adds nothing.
		{ID: 6, Parent: 1, Name: "e", Start: 12, End: 28},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 100 - 40 - 10, 2: 20, 3: 30 - 20, 4: 30, 5: 20, 6: 16}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self(%d) = %d, want %d", id, self[id], w)
		}
	}
}

func TestSelfTimeOfDisjointChildren(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 10}
	kids := []span{{Start: 6, End: 8}, {Start: 1, End: 2}, {Start: 2, End: 3}}
	if got := covered(parent, kids); got != 4 {
		t.Errorf("covered = %d, want 4", got)
	}
	if got := covered(parent, nil); got != 0 {
		t.Errorf("covered without children = %d", got)
	}
}

func TestTracedHandlerChainsSpans(t *testing.T) {
	tr := newTracer()
	root := tr.begin("client", 7, 0)
	hdr := map[string]string{hdrOp: "7", hdrSpan: itoa(root.ID)}
	inner := tracedHandler("node", okHandler(), tr)
	outer := tracedHandler("router", inner, tr)
	serve(t, outer, hdr)
	tr.finish(root)
	serve(t, outer, nil) // no op id: not traced
	byName := make(map[string]span)
	for _, s := range tr.all() {
		byName[s.Name] = s
	}
	if len(tr.all()) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(tr.all()))
	}
	if byName["router"].Parent != root.ID || byName["node"].Parent != byName["router"].ID {
		t.Errorf("parents: router %d (want %d), node %d (want %d)",
			byName["router"].Parent, root.ID, byName["node"].Parent, byName["router"].ID)
	}
	if byName["node"].Op != 7 {
		t.Errorf("node span op = %d, want 7", byName["node"].Op)
	}
}

func itoa(n int64) string { return strconv.FormatInt(n, 10) }

func okHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusOK) })
}

func serve(t *testing.T, h http.Handler, hdr map[string]string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/v1/t/search", nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
}
