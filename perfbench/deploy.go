package main

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"time"

	"sizelos/internal/nodehost"
	"sizelos/internal/qos"
	"sizelos/internal/router"
	"sizelos/internal/tenancy"
)

// serverConfig is the cmd/ossrv default deployment: 1024-entry tenant
// caches, a pool of GOMAXPROCS, dataset seed 1, and a WAL that fsyncs
// every mutation before acknowledging it.
func serverConfig(dataDir string) tenancy.ServerConfig {
	return tenancy.ServerConfig{
		Addr:             "127.0.0.1:0",
		CacheBudget:      1024,
		Seed:             1,
		DataDir:          dataDir,
		SnapshotInterval: qos.Duration(5 * time.Minute),
		KeepSnapshots:    2,
		Drain:            qos.Duration(10 * time.Second),
	}
}

func quiet(string, ...any) {}

// deployment is one node behind one router, each on its own loopback
// listener, as cmd/ossrv and cmd/osrouter would run them.
type deployment struct {
	node   *nodehost.Node
	router *router.Router
	base   string // router URL
	stops  []func()
}

// boot starts the node with every tenant of defs ready, then the router
// in front of it. With a tracer both handlers are wrapped in spans.
func boot(cfg tenancy.ServerConfig, defs []string, tr *tracer) (*deployment, error) {
	node, err := nodehost.Boot(cfg, defs, nodehost.Config{Logf: quiet})
	if err != nil {
		return nil, fmt.Errorf("boot node: %w", err)
	}
	d := &deployment{node: node}
	var nodeH http.Handler = node.Handler()
	if tr != nil {
		nodeH = tracedHandler("node", nodeH, tr)
	}
	nodeURL, err := d.serve(nodeH)
	if err != nil {
		d.close()
		return nil, err
	}
	rt, err := router.New(router.Config{Members: []router.Member{{Name: "n1", URL: nodeURL}}, Logf: quiet})
	if err != nil {
		d.close()
		return nil, fmt.Errorf("start router: %w", err)
	}
	d.router = rt
	var rtH http.Handler = rt
	if tr != nil {
		rtH = tracedHandler("router", rtH, tr)
	}
	if d.base, err = d.serve(rtH); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// serve runs h on a fresh loopback listener until close.
func (d *deployment) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listen: %w", err)
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns ErrServerClosed once close runs
	}()
	d.stops = append(d.stops, func() {
		_ = srv.Close() // an error here only means it was already closed
		<-done
	})
	return "http://" + ln.Addr().String(), nil
}

// close stops the listeners (router first), the router's health loop and
// the node, which snapshots and closes every tenant's WAL.
func (d *deployment) close() {
	for i := len(d.stops) - 1; i >= 0; i-- {
		d.stops[i]()
	}
	d.stops = nil
	if d.router != nil {
		d.router.Close() //errlint:ok (void Close: stops the health loop)
		d.router = nil
	}
	if d.node != nil {
		d.node.Close() //errlint:ok (void Close: snapshots + closes every tenant internally)
		d.node = nil
	}
}

// refused counts the requests the tenant's QoS throttled or shed.
func refused(s tenancy.StatsResponse) uint64 {
	if s.QoS == nil {
		return 0
	}
	return s.QoS.Search.Throttled + s.QoS.Mutate.Throttled + s.QoS.Admission.Shed
}

// scrape reads every tenant's stats through the router.
func scrape(c *http.Client, base string, tenants []string) (map[string]tenancy.StatsResponse, error) {
	out := make(map[string]tenancy.StatsResponse, len(tenants))
	for _, name := range tenants {
		resp, err := c.Get(base + "/v1/" + name + "/stats")
		if err != nil {
			return nil, fmt.Errorf("stats %s: %w", name, err)
		}
		var st tenancy.StatsResponse
		err = json.NewDecoder(resp.Body).Decode(&st)
		_ = resp.Body.Close() // the body has been read
		if err != nil {
			return nil, fmt.Errorf("stats %s: %w", name, err)
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("stats %s: status %d", name, resp.StatusCode)
		}
		out[name] = st
	}
	return out, nil
}

// dirBytes sums the sizes of the regular files under dir. Nothing prunes
// the data dir while the load runs: snapshots are taken only at close.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || !e.Type().IsRegular() {
			return err
		}
		info, err := e.Info()
		total += info.Size()
		return err
	})
	return total, err
}

// tenantNames extracts the names of name=dataset definitions.
func tenantNames(defs []string) []string {
	out := make([]string, len(defs))
	for i, def := range defs {
		out[i], _, _ = strings.Cut(def, "=")
	}
	return out
}
