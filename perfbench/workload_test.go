package main

import (
	"encoding/json"
	"os"
	"testing"

	"sizelos/internal/datagen"
)

// digestOf generates n ops per client, acking every mutation, and returns
// the stream digest.
func digestOf(t *testing.T, workload string, seed int64, n int) string {
	t.Helper()
	cfg := streamConfig{Workload: workload, Seed: seed, Customers: 600}
	if workload == writeMix {
		db, err := datagen.GenerateDBLP(datagen.DefaultDBLPConfig())
		if err != nil {
			t.Fatal(err)
		}
		cfg.Shadow = db
	}
	d := newStreamDigest()
	for c := 0; c < nClients; c++ {
		st := newStream(cfg, c)
		for i := 0; i < n; i++ {
			o := st.next()
			d.add(&o)
			if err := st.acked(&o); err != nil {
				t.Fatalf("%s seed %d: op %d does not apply to the shadow: %v", workload, seed, i, err)
			}
		}
	}
	return d.sum()
}

func TestOpStreamIsDeterministic(t *testing.T) {
	for _, w := range workloadNames {
		a, b := digestOf(t, w, 42, digestOps), digestOf(t, w, 42, digestOps)
		if a != b {
			t.Errorf("%s: seed 42 gave digests %s and %s", w, a, b)
		}
		if c := digestOf(t, w, 43, digestOps); c == a {
			t.Errorf("%s: seeds 42 and 43 gave the same stream", w)
		}
	}
}

func TestColdStreamCoversEveryCombination(t *testing.T) {
	st := newStream(streamConfig{Workload: summarizeCold, Seed: 5, Customers: 600}, 1)
	combos := make(map[readReq]int)
	types := make(map[string]int)
	for i := 0; i < coldCombos; i++ {
		o := st.next()
		types[o.Tenant+"/"+o.Kind+"/"+o.Read.Rel]++
		combos[readReq{Setting: o.Read.Setting, Algo: o.Read.Algo, L: o.Read.L}]++
	}
	if len(combos) != coldCombos {
		t.Errorf("one deck covered %d distinct combinations, want %d", len(combos), coldCombos)
	}
	want := map[string]int{
		"dblp/ranked/Paper": coldCombos / 3, "dblp/search/Paper": coldCombos / 3,
		"tpch/search/Customer": coldCombos / 6, "tpch/ranked/Supplier": coldCombos / 6,
	}
	for k, n := range want {
		if types[k] != n {
			t.Errorf("%s: %d requests, want %d", k, types[k], n)
		}
	}
}

func TestWriteMixShape(t *testing.T) {
	db, err := datagen.GenerateDBLP(datagen.DefaultDBLPConfig())
	if err != nil {
		t.Fatal(err)
	}
	st := newStream(streamConfig{Workload: writeMix, Seed: 9, Shadow: db}, 0)
	tokens := make(map[string]bool)
	reranks, batches := 0, 0
	for i := 0; i < 4*rerankEvery; i++ {
		o := st.next()
		if i%2 == 1 {
			if o.Kind == kindMutate {
				t.Fatalf("op %d: the writer alternates batches and reads", i)
			}
			continue
		}
		batches++
		if o.Batch.Rerank {
			reranks++
		}
		if tokens[o.Token] {
			t.Fatalf("token %s reused", o.Token)
		}
		tokens[o.Token] = true
		if err := st.acked(&o); err != nil {
			t.Fatal(err)
		}
	}
	if reranks*rerankEvery != batches {
		t.Errorf("%d of %d batches re-rank, want 1 in %d", reranks, batches, rerankEvery)
	}
}

func TestResultCount(t *testing.T) {
	body := []byte(`{"tenant":"t","relation":"Author","query":"x","l":15,"count":12,"results":[{"text":"\"count\":99"}]}`)
	if got := resultCount(body); got != 12 {
		t.Errorf("resultCount = %d, want 12", got)
	}
	if got := resultCount([]byte(`{"error":{}}`)); got != 0 {
		t.Errorf("resultCount of an error = %d", got)
	}
}

// TestBenchmarkJSONMatchesReport keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestBenchmarkJSONMatchesReport(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if i < len(workloadNames) && w.Name != workloadNames[i] {
			t.Errorf("workload %d: %s vs %s", i, w.Name, workloadNames[i])
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: %s %s vs %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndDefs)
	check("per_layer", spec.PerLayer, layerDefs)
}
