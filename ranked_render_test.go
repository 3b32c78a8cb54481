package sizelos

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"testing"

	"sizelos/internal/datagen"
)

// openRankedFixtures opens fresh small DBLP and TPC-H engines (no cache) so
// the tests here own their cache state.
func openRankedFixtures(t *testing.T) (dblp, tpch *Engine) {
	t.Helper()
	dcfg := datagen.DefaultDBLPConfig()
	dcfg.Authors, dcfg.Papers, dcfg.Conferences, dcfg.YearSpan = 100, 500, 8, 5
	dblp, err := OpenDBLP(dcfg)
	if err != nil {
		t.Fatalf("OpenDBLP: %v", err)
	}
	tcfg := datagen.DefaultTPCHConfig()
	tcfg.ScaleFactor = 0.002
	tpch, err = OpenTPCH(tcfg)
	if err != nil {
		t.Fatalf("OpenTPCH: %v", err)
	}
	return dblp, tpch
}

// renderAllRanked is the pre-select-then-render ranking: summarize and
// render every candidate with the cache off, sort by (Im(S) desc, tuple
// asc), cut to K.
func renderAllRanked(t *testing.T, eng *Engine, req QueryRequest) []Summary {
	t.Helper()
	plain := req
	plain.RankBySummary, plain.K, plain.Limit, plain.Cursor = false, 0, 0, ""
	want := refSearchSummaries(t, eng, plain)
	sort.SliceStable(want, func(a, b int) bool {
		if want[a].Result.Importance != want[b].Result.Importance {
			return want[a].Result.Importance > want[b].Result.Importance
		}
		return want[a].Tuple < want[b].Tuple
	})
	if req.K > 0 && len(want) > req.K {
		want = want[:req.K]
	}
	return want
}

// sameServed compares what a served summary shows: subject, headline,
// Im(S), selected node set and text. Tree pointers differ between a cached
// and an uncached computation, so they are not compared.
func sameServed(t *testing.T, what string, got, want []Summary) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d summaries, want %d", what, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.unrendered {
			t.Fatalf("%s: result %d (tuple %d) served without rendering", what, i, g.Tuple)
		}
		gn, wn := slices.Clone(g.Result.Nodes), slices.Clone(w.Result.Nodes)
		slices.Sort(gn)
		slices.Sort(wn)
		if g.DSRel != w.DSRel || g.Tuple != w.Tuple || g.Headline != w.Headline ||
			g.Result.Importance != w.Result.Importance || !slices.Equal(gn, wn) || g.Text != w.Text {
			t.Fatalf("%s: result %d differs:\ngot  tuple %d Im %v %q\nwant tuple %d Im %v %q",
				what, i, g.Tuple, g.Result.Importance, g.Text, w.Tuple, w.Result.Importance, w.Text)
		}
	}
}

// pageThrough serves req in pages of size limit, following the cursor.
func pageThrough(t *testing.T, eng *Engine, req QueryRequest, limit int) []Summary {
	t.Helper()
	req.Limit = limit
	var out []Summary
	for page := 0; ; page++ {
		got, cursor, _, err := eng.QueryPage(req)
		if err != nil {
			t.Fatalf("page %d of %+v: %v", page, req, err)
		}
		out = append(out, got...)
		if cursor == "" {
			return out
		}
		req.Cursor = cursor
	}
}

// TestRankedSelectThenRenderEquivalence checks that ranking selections and
// rendering only the K winners serves exactly what rendering every
// candidate did: every algorithm, setting, several l (one with weights
// shown) and K, cache on and off, whole pages and cursor paging.
func TestRankedSelectThenRenderEquivalence(t *testing.T) {
	dblp, tpch := openRankedFixtures(t)
	for _, sub := range []struct {
		eng        *Engine
		rel, query string
	}{{dblp, "Paper", "Mining"}, {tpch, "Supplier", "Supplier"}} {
		for _, setting := range sub.eng.SettingNames() {
			for _, algo := range []Algorithm{AlgoTopPath, AlgoBottomUp, AlgoDP} {
				for _, l := range []int{3, 8, 15} {
					base := QueryRequest{Rel: sub.rel, Query: sub.query, L: l,
						Setting: setting, Algorithm: algo, RankBySummary: true,
						ShowWeights: l == 8}
					sub.eng.EnableSummaryCache(0)
					wantAll := renderAllRanked(t, sub.eng, base)
					if len(wantAll) < 12 {
						t.Fatalf("%s %q matches %d subjects; too few to rank", sub.rel, sub.query, len(wantAll))
					}
					for _, cache := range []int{0, 4096} {
						sub.eng.EnableSummaryCache(cache)
						for _, k := range []int{1, 10, 0} {
							req := base
							req.K = k
							want := wantAll
							if k > 0 {
								want = wantAll[:k]
							}
							what := fmt.Sprintf("%s/%s/%s/l=%d/k=%d/cache=%d", sub.rel, setting, algo, l, k, cache)
							got, _, _, err := sub.eng.QueryPage(req)
							if err != nil {
								t.Fatalf("%s: %v", what, err)
							}
							sameServed(t, what, got, want)
							// Each page re-ranks every candidate, so at most
							// four pages per query keep the test fast.
							limit := max(3, len(want)/3+1)
							sameServed(t, what+"/paged", pageThrough(t, sub.eng, req, limit), want)
						}
					}
				}
			}
		}
		sub.eng.EnableSummaryCache(0)
	}
}

// TestRankedLeavesNoUnrenderedServes fills the cache with the text-less
// selections of a ranked query's losers, then serves the same subjects
// through a stream page and SizeL: each must carry the text a cache-off
// computation renders, and the cache entry must hold it afterwards.
func TestRankedLeavesNoUnrenderedServes(t *testing.T) {
	dblp, _ := openRankedFixtures(t)
	const l = 10
	ranked := QueryRequest{Rel: "Paper", Query: "Mining", L: l, RankBySummary: true, K: 3}
	stream := QueryRequest{Rel: "Paper", Query: "Mining", L: l}
	opts := stream.options()

	dblp.EnableSummaryCache(0)
	want := refSearchSummaries(t, dblp, stream)

	dblp.EnableSummaryCache(4096)
	if _, _, _, err := dblp.QueryPage(ranked); err != nil {
		t.Fatalf("ranked QueryPage: %v", err)
	}
	cache := dblp.cache.Load()
	unrendered := 0
	for _, s := range want {
		c, ok := cache.Peek(dblp.summaryKeyFor("Paper", s.Tuple, l, opts))
		if !ok {
			t.Fatalf("tuple %d: ranked query left no cache entry", s.Tuple)
		}
		if c.unrendered {
			unrendered++
		}
	}
	if unrendered != len(want)-ranked.K {
		t.Fatalf("ranked K=%d query over %d matches left %d text-less entries, want %d",
			ranked.K, len(want), unrendered, len(want)-ranked.K)
	}

	got, _, stats, err := dblp.QueryPage(stream)
	if err != nil {
		t.Fatalf("stream QueryPage: %v", err)
	}
	sameServed(t, "stream page after ranked", got, want)
	if stats.Rendered != unrendered {
		t.Fatalf("stream page rendered %d summaries, want the %d text-less entries", stats.Rendered, unrendered)
	}
	for _, s := range want {
		c, _ := cache.Peek(dblp.summaryKeyFor("Paper", s.Tuple, l, opts))
		if c.unrendered || c.Text != s.Text {
			t.Fatalf("tuple %d: cache entry not refreshed with its text", s.Tuple)
		}
	}

	// SizeL on subjects whose only cache entry is a selection.
	dblp.EnableSummaryCache(4096)
	if _, _, _, err := dblp.QueryPage(ranked); err != nil {
		t.Fatalf("ranked QueryPage: %v", err)
	}
	for _, w := range want {
		s, err := dblp.SizeL("Paper", w.Tuple, l, SearchOptions{})
		if err != nil {
			t.Fatalf("SizeL(%d): %v", w.Tuple, err)
		}
		sameServed(t, fmt.Sprintf("SizeL(%d) after ranked", w.Tuple), []Summary{s}, []Summary{w})
	}
	dblp.EnableSummaryCache(0)
}

// TestQueryStatsRendered makes the select-then-render saving observable: a
// cold ranked K=10 query over ~500 matches selects every candidate but
// renders at most 10, and a cold stream page renders what it serves.
func TestQueryStatsRendered(t *testing.T) {
	eng, err := OpenDBLP(datagen.DefaultDBLPConfig())
	if err != nil {
		t.Fatalf("OpenDBLP: %v", err)
	}
	for _, cache := range []int{0, 1024} {
		eng.EnableSummaryCache(cache)
		_, _, stats, err := eng.QueryPage(QueryRequest{Rel: "Paper", Query: "Efficient", L: 10, RankBySummary: true, K: 10})
		if err != nil {
			t.Fatalf("ranked QueryPage: %v", err)
		}
		if stats.Matches < 300 || stats.Summaries != stats.Matches || stats.Rendered > 10 || stats.Rendered < 1 {
			t.Fatalf("cache=%d: cold ranked K=10 stats %+v, want Summaries == Matches ≈ 500 and 1 ≤ Rendered ≤ 10", cache, stats)
		}

		_, _, stats, err = eng.QueryPage(QueryRequest{Rel: "Paper", Query: "Scalable", L: 10, Limit: 25})
		if err != nil {
			t.Fatalf("stream QueryPage: %v", err)
		}
		if stats.Summaries != 25 || stats.Rendered != stats.Summaries {
			t.Fatalf("cache=%d: cold stream page stats %+v, want Rendered == Summaries == 25", cache, stats)
		}
	}
	// A warm repeat of the stream page serves cached text: nothing renders.
	_, _, stats, err := eng.QueryPage(QueryRequest{Rel: "Paper", Query: "Scalable", L: 10, Limit: 25})
	if err != nil {
		t.Fatalf("stream QueryPage: %v", err)
	}
	if stats.Summaries != 25 || stats.Rendered != 0 {
		t.Fatalf("warm stream page stats %+v, want Summaries 25, Rendered 0", stats)
	}
}

// TestRankedConcurrentRendersShareCache runs ranked and stream queries over
// the same subjects from several goroutines at once, so text-less cache
// entries are rendered and swapped in while others read them; meaningful
// under -race. Every served page must still match a cache-off reference.
func TestRankedConcurrentRendersShareCache(t *testing.T) {
	dblp, _ := openRankedFixtures(t)
	ranked := QueryRequest{Rel: "Paper", Query: "Mining", L: 10, RankBySummary: true, K: 3, Parallel: 2}
	stream := QueryRequest{Rel: "Paper", Query: "Mining", L: 10, Parallel: 2}
	wantRanked := renderAllRanked(t, dblp, ranked)
	wantStream := refSearchSummaries(t, dblp, stream)
	dblp.EnableSummaryCache(4096)
	defer dblp.EnableSummaryCache(0)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				req, want := ranked, wantRanked
				if (g+i)%2 == 1 {
					req, want = stream, wantStream
				}
				got, _, _, err := dblp.QueryPage(req)
				if err != nil {
					t.Errorf("QueryPage: %v", err)
					return
				}
				if len(got) != len(want) {
					t.Errorf("served %d summaries, want %d", len(got), len(want))
					return
				}
				for j := range got {
					if got[j].unrendered || got[j].Tuple != want[j].Tuple || got[j].Text != want[j].Text {
						t.Errorf("result %d: tuple %d text %q, want tuple %d text %q",
							j, got[j].Tuple, got[j].Text, want[j].Tuple, want[j].Text)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
