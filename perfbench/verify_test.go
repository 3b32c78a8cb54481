package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sizelos"
	"sizelos/internal/datagen"
	"sizelos/internal/nodehost"
	"sizelos/internal/relational"
	"sizelos/internal/tenancy"
)

// smallNode boots an in-memory node whose tenants serve a small DBLP.
func smallNode(t *testing.T, defs ...string) *nodehost.Node {
	t.Helper()
	node, err := nodehost.Boot(tenancy.ServerConfig{Seed: 1, CacheBudget: 64}, defs, nodehost.Config{
		Logf: quiet,
		Open: func(dataset string, seed int64) (*sizelos.Engine, error) {
			cfg := datagen.DefaultDBLPConfig()
			cfg.Seed, cfg.Authors, cfg.Papers = seed, 40, 160
			return sizelos.OpenDBLP(cfg)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Close)
	return node
}

// droppingHandler acknowledges every mutation whose body names a token in
// drop without applying it: a server that loses acked writes.
func droppingHandler(next http.Handler, drop map[string]bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			body, _ := io.ReadAll(r.Body) // an in-memory request body cannot fail
			for tok := range drop {
				if strings.Contains(string(body), `"Ledger `+tok+`"`) {
					w.WriteHeader(http.StatusOK)
					_, _ = w.Write([]byte(`{"tenant":"dblp","inserted":[0]}`))
					return
				}
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		next.ServeHTTP(w, r)
	})
}

func post(t *testing.T, h http.Handler, tenant string, body []byte) int {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/"+tenant+"/tuples", bytes.NewReader(body)))
	return rec.Code
}

func TestLedgerCatchesAckedThenDroppedWrites(t *testing.T) {
	node := smallNode(t, "dblp=dblp")
	drop := map[string]bool{ledgerToken(1): true, ledgerToken(4): true}
	h := droppingHandler(node.Handler(), drop)
	var acked []string
	for n := 0; n < 6; n++ {
		_, body := encodeBatch(relational.Batch{Inserts: []relational.InsertOp{ledgerInsert(n)}}, false)
		if code := post(t, h, "dblp", body); code != http.StatusOK {
			t.Fatalf("insert %d: status %d", n, code)
		}
		acked = append(acked, ledgerToken(n))
	}
	missing, err := missingTokens(handlerGetter(h), "dblp", acked)
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) != 2 || !drop[missing[0]] || !drop[missing[1]] {
		t.Fatalf("missing = %v, want exactly the dropped %v", missing, drop)
	}
	if err := checkLedger(handlerGetter(h), "dblp", acked, "test"); err == nil ||
		!strings.Contains(err.Error(), "2 of 6") {
		t.Fatalf("checkLedger = %v, want a 2-of-6 failure", err)
	}
	kept := []string{ledgerToken(0), ledgerToken(2), ledgerToken(3), ledgerToken(5)}
	if err := checkLedger(handlerGetter(h), "dblp", kept, "test"); err != nil {
		t.Fatalf("honest writes flagged: %v", err)
	}
}

func TestCheckPagesDetectsAWrongPage(t *testing.T) {
	node := smallNode(t, "dblp=dblp")
	get := handlerGetter(node.Handler())
	o := op{Kind: kindSearch, Tenant: "dblp", Read: readReq{Rel: "Author", Q: "Faloutsos", L: 15, Limit: 10}}
	status, body, _ := get(o.path())
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	// The small node's pages differ from the reference (default-size
	// dataset) pages, and a corrupted byte must be caught too.
	defs := []string{"dblp=dblp"}
	if err := checkPages(defs, []pageCheck{{Op: o, Body: body}}, nil); err == nil {
		t.Fatal("a page from another dataset passed the reference check")
	}
	ref := serverConfig("").NewRegistry()
	eng, err := nodehost.OpenDataset("dblp", 1, nodehost.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Register("dblp", eng, tenancy.Options{}); err != nil {
		t.Fatal(err)
	}
	_, good, _ := handlerGetter(ref.Handler())(o.path())
	if err := checkPages(defs, []pageCheck{{Op: o, Body: good}}, nil); err != nil {
		t.Fatalf("reference page rejected: %v", err)
	}
	bad := append([]byte(nil), good...)
	bad[len(bad)/2] ^= 1
	if err := checkPages(defs, []pageCheck{{Op: o, Body: bad}}, nil); err == nil {
		t.Fatal("a corrupted page passed the reference check")
	}
}
