package main

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestIssueFailsOnAnyStatusButOK(t *testing.T) {
	for _, code := range []int{http.StatusOK, http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusInternalServerError} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(code)
			_, _ = w.Write([]byte(`{"count":3}`))
		}))
		o := op{Kind: kindSearch, Tenant: "dblp", Read: readReq{Rel: "Author", Q: "Chen", L: 15, Limit: 10}}
		s, body, err := issue(srv.Client(), srv.URL, &o, nil)
		srv.Close()
		if code == http.StatusOK {
			if err != nil || s.Results != 3 || len(body) == 0 {
				t.Fatalf("200: sample %+v, err %v", s, err)
			}
			continue
		}
		if err == nil {
			t.Fatalf("status %d was not an error", code)
		}
	}
	o := op{Kind: kindSearch, Tenant: "dblp", Read: readReq{Rel: "Author", Q: "Chen", L: 15}}
	if _, _, err := issue(http.DefaultClient, "http://127.0.0.1:1", &o, nil); err == nil {
		t.Fatal("a refused connection was not an error")
	}
}

func TestPageChecksCoverTheWholeRun(t *testing.T) {
	ld := &load{}
	rng := rand.New(rand.NewSource(1))
	const reads = 20000
	for i := 0; i < reads; i++ {
		ld.sampleCheck(rng, pageCheck{Acks: i})
	}
	if len(ld.Checks) != maxChecks || ld.offered != reads {
		t.Fatalf("kept %d of %d offered, want %d", len(ld.Checks), ld.offered, maxChecks)
	}
	late := 0
	for _, c := range ld.Checks {
		if c.Acks >= reads/2 {
			late++
		}
	}
	// A uniform sample puts about half the checks in the second half.
	if late < maxChecks/4 || late > maxChecks*3/4 {
		t.Fatalf("%d of %d checks in the second half of the run", late, maxChecks)
	}
}
