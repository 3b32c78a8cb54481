package main

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"

	"sizelos/internal/nodehost"
	"sizelos/internal/tenancy"
)

// getter issues one GET and returns the status and body.
type getter func(path string) (int, []byte, error)

func httpGetter(hc *http.Client, base string) getter {
	return func(path string) (int, []byte, error) {
		resp, err := hc.Get(base + path)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return resp.StatusCode, body, err
	}
}

func handlerGetter(h http.Handler) getter {
	return func(path string) (int, []byte, error) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Code, rec.Body.Bytes(), nil
	}
}

// missingTokens returns the acknowledged ledger tokens that a search of
// the tenant's Author relation no longer finds.
func missingTokens(get getter, tenant string, tokens []string) ([]string, error) {
	var missing []string
	for _, tok := range tokens {
		status, body, err := get("/v1/" + tenant + "/search?rel=Author&l=5&q=" + url.QueryEscape(tok))
		if err != nil {
			return nil, fmt.Errorf("ledger read %s: %w", tok, err)
		}
		if status != http.StatusOK || resultCount(body) < 1 {
			missing = append(missing, tok)
		}
	}
	return missing, nil
}

// checkLedger verifies every acked token through get.
func checkLedger(get getter, tenant string, tokens []string, where string) error {
	missing, err := missingTokens(get, tenant, tokens)
	if err != nil {
		return err
	}
	if len(missing) > 0 {
		return fmt.Errorf("%s: %d of %d acknowledged writes missing (first: %s)",
			where, len(missing), len(tokens), missing[0])
	}
	return nil
}

// checkReopened boots a fresh node over the run's data dir, as a restart
// would, and verifies the ledger against it.
func checkReopened(cfg tenancy.ServerConfig, defs []string, tenant string, tokens []string) error {
	node, err := nodehost.Boot(cfg, defs, nodehost.Config{Logf: quiet})
	if err != nil {
		return fmt.Errorf("reopen data dir: %w", err)
	}
	defer node.Close() //errlint:ok (void Close)
	return checkLedger(handlerGetter(node.Handler()), tenant, tokens, "after reopening the data dir")
}

// checkPages serves every sampled read again from reference engines built
// from the same seed, without cache or durability, and compares the
// bodies byte for byte. On write-mix the reference first applies the
// batches the writing client had acknowledged before the read.
func checkPages(defs []string, checks []pageCheck, acks []ackRec) error {
	cfg := serverConfig("")
	reg := cfg.NewRegistry()
	for _, def := range defs {
		name, dataset, _ := strings.Cut(def, "=")
		eng, err := nodehost.OpenDataset(dataset, cfg.Seed, nodehost.Config{})
		if err != nil {
			return fmt.Errorf("reference %s: %w", name, err)
		}
		if _, err := reg.Register(name, eng, tenancy.Options{}); err != nil {
			return fmt.Errorf("reference %s: %w", name, err)
		}
	}
	get := handlerGetter(reg.Handler())
	// The reference moves forward only: visit the checks in ack order.
	checks = slices.Clone(checks)
	slices.SortStableFunc(checks, func(a, b pageCheck) int { return cmp.Compare(a.Acks, b.Acks) })
	applied := 0
	for _, c := range checks {
		for ; applied < c.Acks; applied++ {
			if applied >= len(acks) {
				return fmt.Errorf("reference needs batch %d, only %d kept", applied, len(acks))
			}
			a := acks[applied].Op
			t, _ := reg.Get(a.Tenant)
			if _, err := t.Engine.Mutate(a.Batch); err != nil {
				return fmt.Errorf("reference rejected acked batch %d: %w", applied, err)
			}
		}
		path := c.Op.path()
		status, body, _ := get(path) // an in-process handler cannot fail to connect
		if status != http.StatusOK || !bytes.Equal(body, c.Body) {
			return fmt.Errorf("page mismatch for %s after %d batches: served %d bytes, reference (status %d) %d bytes",
				path, c.Acks, len(c.Body), status, len(body))
		}
	}
	return nil
}
