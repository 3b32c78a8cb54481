package tenancy

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"sizelos/internal/qos"
)

func TestLoadServerConfig(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ossrv.json")
	doc := `{
		"addr": ":9090",
		"pool": 3,
		"cache": 512,
		"seed": 42,
		"admin_token": "sekrit",
		"data_dir": "/tmp/sizelos-test",
		"snapshot_interval": "5m",
		"wal_sync": 1000000,
		"keep_snapshots": 3,
		"drain": "2s",
		"tenants": {"demo": "dblp"},
		"qos": {
			"default": {"max_in_flight": 8, "default_budget": "250ms"},
			"tenants": {"noisy": {"search_rate": 20, "search_burst": 5}}
		}
	}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := LoadServerConfig(path)
	if err != nil {
		t.Fatalf("LoadServerConfig: %v", err)
	}
	if cfg.Addr != ":9090" || cfg.PoolSize != 3 || cfg.CacheBudget != 512 || cfg.Seed != 42 {
		t.Errorf("core fields: %+v", cfg)
	}
	if cfg.AdminToken != "sekrit" || cfg.DataDir != "/tmp/sizelos-test" {
		t.Errorf("authz/durability fields: %+v", cfg)
	}
	// Durations are accepted both as Go strings and as nanosecond numbers.
	if cfg.SnapshotInterval.Std() != 5*time.Minute {
		t.Errorf("snapshot_interval = %v", cfg.SnapshotInterval.Std())
	}
	if cfg.WALSync.Std() != time.Millisecond {
		t.Errorf("wal_sync = %v", cfg.WALSync.Std())
	}
	if cfg.Drain.Std() != 2*time.Second || cfg.KeepSnapshots != 3 {
		t.Errorf("drain/keep: %+v", cfg)
	}
	if cfg.Tenants["demo"] != "dblp" {
		t.Errorf("tenants = %v", cfg.Tenants)
	}
	if cfg.QoS.Default.MaxInFlight != 8 || cfg.QoS.Default.DefaultBudget.Std() != 250*time.Millisecond {
		t.Errorf("qos default = %+v", cfg.QoS.Default)
	}
	noisy := cfg.QoS.For("noisy")
	if noisy.SearchRate != 20 || noisy.SearchBurst != 5 || noisy.MaxInFlight != 8 {
		t.Errorf("noisy merged limits = %+v (per-tenant override must inherit default max_in_flight)", noisy)
	}
}

func TestLoadServerConfigRejectsUnknownFields(t *testing.T) {
	// A typo, and residual_workers — a removed knob an old config may
	// still carry — must both fail the load rather than be ignored.
	for _, body := range []string{`{"adress": ":9090"}`, `{"residual_workers": 1}`} {
		path := filepath.Join(t.TempDir(), "bad.json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadServerConfig(path); err == nil {
			t.Fatalf("unknown field in %s loaded silently; want an error", body)
		}
	}
	if _, err := LoadServerConfig(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file loaded silently; want an error")
	}
}

// TestServerConfigNewRegistry proves the config actually lands on the
// registry: authz token, default cache budget, and QoS enforcement.
func TestServerConfigNewRegistry(t *testing.T) {
	cfg := ServerConfig{
		PoolSize:    2,
		CacheBudget: 64,
		AdminToken:  "tok",
		QoS: qos.Config{
			Default: qos.Limits{MaxInFlight: 4},
		},
	}
	reg := cfg.NewRegistry()
	if reg.adminToken != "tok" {
		t.Errorf("adminToken = %q", reg.adminToken)
	}
	if reg.defaultCache != 64 {
		t.Errorf("defaultCache = %d", reg.defaultCache)
	}
	if reg.Pool().Stats().Size != 2 {
		t.Errorf("pool size = %d", reg.Pool().Stats().Size)
	}
	if reg.qos == nil {
		t.Fatal("qos not installed")
	}
	if _, err := reg.Register("demo", testEngine(t, 1), Options{}); err != nil {
		t.Fatal(err)
	}
	if lim := reg.limiterFor("demo"); lim == nil {
		t.Error("no limiter for a registered tenant under a default QoS config")
	} else if lim.Stats().Admission.MaxInFlight != 4 {
		t.Errorf("admission = %+v", lim.Stats().Admission)
	}
	// Registration inherited the default cache budget.
	tn, _ := reg.Get("demo")
	if cs, enabled := tn.Engine.SummaryCacheStats(); !enabled || cs.Cap != 64 {
		t.Errorf("cache: enabled=%v cap=%d, want enabled cap 64", enabled, cs.Cap)
	}
	// A zero QoS config must install nothing at all.
	if reg2 := (ServerConfig{PoolSize: 1}).NewRegistry(); reg2.qos != nil {
		t.Error("zero config installed a QoS set")
	}
}
