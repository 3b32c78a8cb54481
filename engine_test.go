package sizelos

import (
	"strings"
	"testing"

	"sizelos/internal/datagen"
)

// testDBLP opens a small DBLP engine once per test binary.
var dblpEngine *Engine

func getDBLP(t *testing.T) *Engine {
	t.Helper()
	if dblpEngine != nil {
		return dblpEngine
	}
	cfg := datagen.DefaultDBLPConfig()
	cfg.Authors = 100
	cfg.Papers = 500
	cfg.Conferences = 8
	cfg.YearSpan = 5
	eng, err := OpenDBLP(cfg)
	if err != nil {
		t.Fatalf("OpenDBLP: %v", err)
	}
	dblpEngine = eng
	return eng
}

func TestSearchFaloutsos(t *testing.T) {
	eng := getDBLP(t)
	results, _, _, err := eng.QueryPage(QueryRequest{Rel: "Author", Query: "Faloutsos", L: 15})
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if len(results) != 3 {
		t.Fatalf("Q1 'Faloutsos' returned %d results, want the 3 brothers", len(results))
	}
	for _, r := range results {
		if !strings.Contains(r.Headline, "Faloutsos") {
			t.Errorf("headline %q does not mention Faloutsos", r.Headline)
		}
		if len(r.Result.Nodes) != 15 {
			t.Errorf("%s: size-l OS has %d tuples, want 15", r.Headline, len(r.Result.Nodes))
		}
		if !r.Tree.IsConnectedSubtree(r.Result.Nodes) {
			t.Errorf("%s: summary disconnected", r.Headline)
		}
		if !strings.Contains(r.Text, "Author: ") {
			t.Errorf("%s: rendered text missing root line:\n%s", r.Headline, r.Text)
		}
	}
}

func TestSearchMultiKeyword(t *testing.T) {
	eng := getDBLP(t)
	results, _, _, err := eng.QueryPage(QueryRequest{Rel: "Author", Query: "Christos Faloutsos", L: 10})
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if len(results) != 1 {
		t.Fatalf("got %d results, want exactly Christos", len(results))
	}
	if results[0].Headline != "Christos Faloutsos" {
		t.Errorf("headline = %q", results[0].Headline)
	}
}

func TestSearchNoMatch(t *testing.T) {
	eng := getDBLP(t)
	results, _, _, err := eng.QueryPage(QueryRequest{Rel: "Author", Query: "Nonexistent Person", L: 10})
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if len(results) != 0 {
		t.Errorf("got %d results for nonsense query", len(results))
	}
}

func TestAlgorithmsAgreeOnImportanceOrdering(t *testing.T) {
	eng := getDBLP(t)
	var imp = map[Algorithm]float64{}
	for _, algo := range []Algorithm{AlgoDP, AlgoBottomUp, AlgoTopPath} {
		res, _, _, err := eng.QueryPage(QueryRequest{Rel: "Author", Query: "Christos Faloutsos", L: 12, Algorithm: algo})
		if err != nil {
			t.Fatalf("Search(%s): %v", algo, err)
		}
		if len(res) != 1 {
			t.Fatalf("Search(%s): %d results", algo, len(res))
		}
		imp[algo] = res[0].Result.Importance
	}
	if imp[AlgoBottomUp] > imp[AlgoDP]+1e-9 || imp[AlgoTopPath] > imp[AlgoDP]+1e-9 {
		t.Errorf("greedy beat DP: %v", imp)
	}
}

func TestCompleteVsPrelimAgree(t *testing.T) {
	eng := getDBLP(t)
	a, _, _, err := eng.QueryPage(QueryRequest{Rel: "Author", Query: "Christos Faloutsos", L: 15, Complete: true})
	if err != nil {
		t.Fatalf("Search(complete): %v", err)
	}
	b, _, _, err := eng.QueryPage(QueryRequest{Rel: "Author", Query: "Christos Faloutsos", L: 15})
	if err != nil {
		t.Fatalf("Search(prelim): %v", err)
	}
	da := a[0].Result.Importance - b[0].Result.Importance
	if da < 0 {
		da = -da
	}
	// The paper reports prelim-l quality loss up to ~4%; on this workload
	// the two should essentially coincide.
	if da > 0.05*a[0].Result.Importance {
		t.Errorf("prelim importance %v deviates >5%% from complete %v",
			b[0].Result.Importance, a[0].Result.Importance)
	}
}

func TestDatabaseSourcePath(t *testing.T) {
	eng := getDBLP(t)
	res, _, _, err := eng.QueryPage(QueryRequest{Rel: "Author", Query: "Christos Faloutsos", L: 10, FromDatabase: true})
	if err != nil {
		t.Fatalf("Search(db source): %v", err)
	}
	if len(res) != 1 || len(res[0].Result.Nodes) != 10 {
		t.Fatalf("unexpected result: %+v", res)
	}
}

func TestSettings(t *testing.T) {
	eng := getDBLP(t)
	want := []string{"GA1-d1", "GA1-d2", "GA1-d3", "GA2-d1"}
	got := eng.SettingNames()
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("SettingNames = %v, want %v", got, want)
	}
	for _, s := range want {
		res, _, _, err := eng.QueryPage(QueryRequest{Rel: "Author", Query: "Faloutsos", L: 5, Setting: s})
		if err != nil {
			t.Fatalf("Search(%s): %v", s, err)
		}
		if len(res) != 3 {
			t.Errorf("Search(%s): %d results", s, len(res))
		}
	}
	if _, _, _, err := eng.QueryPage(QueryRequest{Rel: "Author", Query: "x", L: 5, Setting: "nope"}); err == nil {
		t.Error("unknown setting accepted")
	}
}

func TestErrors(t *testing.T) {
	eng := getDBLP(t)
	if _, err := eng.SizeL("Ghost", 0, 5, SearchOptions{}); err == nil {
		t.Error("unknown DS relation accepted")
	}
	if _, err := eng.SizeL("Author", 0, 5, SearchOptions{Algorithm: "magic"}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := NewEngine(eng.DB(), nil); err == nil {
		t.Error("engine with no settings accepted")
	}
}

func TestTopK(t *testing.T) {
	eng := getDBLP(t)
	res, _, _, err := eng.QueryPage(QueryRequest{Rel: "Author", Query: "Faloutsos", L: 5, Limit: 1})
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if len(res) != 1 {
		t.Errorf("Limit=1 returned %d results", len(res))
	}
}

func testTPCHConfig() datagen.TPCHConfig {
	return datagen.TPCHConfig{Seed: 7, ScaleFactor: 0.0005}
}

func TestOpenTPCH(t *testing.T) {
	eng, err := OpenTPCH(testTPCHConfig())
	if err != nil {
		t.Fatalf("OpenTPCH: %v", err)
	}
	// Every customer name is unique: search one and summarize.
	res, _, _, err := eng.QueryPage(QueryRequest{Rel: "Customer", Query: "Customer#000001", L: 10})
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if len(res) != 1 {
		t.Fatalf("got %d results", len(res))
	}
	if got := len(res[0].Result.Nodes); got > 10 || got < 1 {
		t.Errorf("size-l OS has %d tuples", got)
	}
	if !strings.Contains(res[0].Text, "Customer: ") {
		t.Errorf("render missing customer root:\n%s", res[0].Text)
	}
}
