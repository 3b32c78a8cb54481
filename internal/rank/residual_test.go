package rank_test

import (
	"math"
	"testing"

	"sizelos/internal/datagen"
	"sizelos/internal/datagraph"
	"sizelos/internal/rank"
	"sizelos/internal/relational"
)

// residualTol bounds |residual - cold| per tuple on the raw score scale.
// Both runs stop when their max residual drops below epsilon, leaving each
// within ~epsilon/(1-d) of the true fixed point; the factor adds slack for
// the prior's own carried-over sub-epsilon residual.
func residualTol(damping float64) float64 {
	return 50 * 1e-9 / (1 - damping)
}

// residualFixture builds a DBLP store, graph and compiled GA1 plans plus
// the converged prior raw scores for one damping.
func residualFixture(t *testing.T, damping float64) (*relational.DB, *datagraph.Graph, *rank.Plans, relational.DBScores) {
	t.Helper()
	cfg := datagen.DefaultDBLPConfig()
	cfg.Authors = 120
	cfg.Papers = 500
	db, err := datagen.GenerateDBLP(cfg)
	if err != nil {
		t.Fatalf("GenerateDBLP: %v", err)
	}
	g, err := datagraph.Build(db)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	ps, err := rank.Compile(g, datagen.DBLPGA1(), nil)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	opts := rank.DefaultOptions()
	opts.Damping = damping
	opts.NormalizeMax = 0
	prior, st, err := ps.Run(opts)
	if err != nil || !st.Converged {
		t.Fatalf("prior Run: err=%v stats=%+v", err, st)
	}
	return db, g, ps, prior
}

// citesBatch inserts nIns fresh citations between existing papers and
// optionally deletes one of the originally generated citations.
func citesBatch(t *testing.T, db *relational.DB, nIns int, deleteFirst bool) relational.Batch {
	t.Helper()
	paper := db.Relation("Paper")
	cites := db.Relation("Cites")
	var b relational.Batch
	if deleteFirst {
		for i := 0; i < cites.Len(); i++ {
			if !cites.Deleted(relational.TupleID(i)) {
				b.Deletes = append(b.Deletes, relational.DeleteOp{Rel: "Cites", PK: cites.PK(relational.TupleID(i))})
				break
			}
		}
	}
	pk := int64(70_000_000)
	for i := 0; i < nIns; i++ {
		a := relational.TupleID(i % paper.Len())
		c := relational.TupleID((i*13 + 7) % paper.Len())
		b.Inserts = append(b.Inserts, relational.InsertOp{Rel: "Cites", Tuple: relational.Tuple{
			relational.IntVal(pk + int64(i)),
			relational.IntVal(paper.PK(a)),
			relational.IntVal(paper.PK(c)),
		}})
	}
	return b
}

// applyAll threads one batch through store, graph and plans — the engine's
// Mutate ordering.
func applyAll(t *testing.T, db *relational.DB, g *datagraph.Graph, ps *rank.Plans, b relational.Batch, pending *rank.Pending) {
	t.Helper()
	res, err := db.Apply(b)
	if err != nil {
		t.Fatalf("db.Apply: %v", err)
	}
	if err := g.Apply(res); err != nil {
		t.Fatalf("graph.Apply: %v", err)
	}
	if err := ps.Apply(res, pending); err != nil {
		t.Fatalf("plans.Apply: %v", err)
	}
}

// coldScores recomputes the setting from scratch over a freshly built graph.
func coldScores(t *testing.T, db *relational.DB, ga *rank.GA, damping float64) relational.DBScores {
	t.Helper()
	g, err := datagraph.Build(db)
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	opts := rank.DefaultOptions()
	opts.Damping = damping
	opts.NormalizeMax = 0
	sc, st, err := rank.Compute(g, ga, opts)
	if err != nil || !st.Converged {
		t.Fatalf("cold: err=%v stats=%+v", err, st)
	}
	return sc
}

func maxDiff(t *testing.T, a, b relational.DBScores) float64 {
	t.Helper()
	worst := 0.0
	for rel, s := range a {
		o := b[rel]
		if len(s) != len(o) {
			t.Fatalf("%s: score lengths %d vs %d", rel, len(s), len(o))
		}
		for i := range s {
			if d := math.Abs(s[i] - o[i]); d > worst {
				worst = d
			}
		}
	}
	return worst
}

// TestResidualMatchesCold is the core contract: after a small batch, the
// residual push lands on the cold fixed point within epsilon-scale
// tolerance, touching only a fraction of the graph.
func TestResidualMatchesCold(t *testing.T) {
	for _, damping := range []float64{0.85, 0.10} {
		db, g, ps, prior := residualFixture(t, damping)
		pending := ps.NewPending()
		applyAll(t, db, g, ps, citesBatch(t, db, 3, true), pending)

		opts := rank.DefaultOptions()
		opts.Damping = damping
		opts.NormalizeMax = 0
		opts.Warm = prior
		// The warm full iteration over the same mutated plans: the work
		// baseline residual mode must beat.
		_, warmSt, err := ps.Run(opts)
		if err != nil || !warmSt.Converged {
			t.Fatalf("d=%v: warm Run: err=%v stats=%+v", damping, err, warmSt)
		}
		got, st, err := ps.RunResidual(pending, opts)
		if err != nil {
			t.Fatalf("d=%v: RunResidual: %v", damping, err)
		}
		if !st.Converged || !st.WarmStart {
			t.Fatalf("d=%v: stats %+v", damping, st)
		}
		if st.Fallback {
			t.Fatalf("d=%v: small batch fell back: %+v", damping, st)
		}
		if st.Pushes == 0 {
			t.Fatalf("d=%v: expected pushes for an edge-changing batch", damping)
		}
		if st.Updates*5 > warmSt.Updates {
			t.Fatalf("d=%v: residual updates %d not >=5x cheaper than warm %d", damping, st.Updates, warmSt.Updates)
		}
		cold := coldScores(t, db, datagen.DBLPGA1(), damping)
		if d := maxDiff(t, got, cold); d > residualTol(damping) {
			t.Fatalf("d=%v: residual diverged from cold by %g (tol %g)", damping, d, residualTol(damping))
		}
	}
}

// TestResidualAccumulatesAcrossBatches applies several batches before one
// residual re-rank: the pending delta must pair the prior with the FIRST
// pre-mutation row of every changed source, not the latest.
func TestResidualAccumulatesAcrossBatches(t *testing.T) {
	const damping = 0.85
	db, g, ps, prior := residualFixture(t, damping)
	pending := ps.NewPending()
	applyAll(t, db, g, ps, citesBatch(t, db, 2, true), pending)
	applyAll(t, db, g, ps, citesBatch(t, db, 0, true), pending) // delete again: re-touches sources
	if pending.Changes() == 0 {
		t.Fatal("pending recorded no changes")
	}

	opts := rank.DefaultOptions()
	opts.Damping = damping
	opts.NormalizeMax = 0
	opts.Warm = prior
	got, st, err := ps.RunResidual(pending, opts)
	if err != nil || !st.Converged || st.Fallback {
		t.Fatalf("RunResidual: err=%v stats=%+v", err, st)
	}
	cold := coldScores(t, db, datagen.DBLPGA1(), damping)
	if d := maxDiff(t, got, cold); d > residualTol(damping) {
		t.Fatalf("residual diverged from cold by %g", d)
	}
}

// TestResidualRescaleOnly: a batch that inserts nodes without touching any
// flow of the G_A (a lone author writes nothing) changes only N. The new
// fixed point is exactly the rescaled prior — zero pushes required.
func TestResidualRescaleOnly(t *testing.T) {
	const damping = 0.85
	cfg := datagen.DefaultDBLPConfig()
	cfg.Authors = 120
	cfg.Papers = 500
	db, err := datagen.GenerateDBLP(cfg)
	if err != nil {
		t.Fatalf("GenerateDBLP: %v", err)
	}
	g, err := datagraph.Build(db)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	// Citation-only G_A: author inserts cannot change any compiled row.
	ga := rank.NewGA("cites-only").Hop("Cites", 0, 1, 0.7)
	ps, err := rank.Compile(g, ga, nil)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	opts := rank.DefaultOptions()
	opts.Damping = damping
	opts.NormalizeMax = 0
	prior, _, err := ps.Run(opts)
	if err != nil {
		t.Fatalf("prior: %v", err)
	}

	pending := ps.NewPending()
	applyAll(t, db, g, ps, relational.Batch{Inserts: []relational.InsertOp{
		{Rel: "Author", Tuple: relational.Tuple{relational.IntVal(80_000_000), relational.StrVal("Lone Author")}},
	}}, pending)

	opts.Warm = prior
	got, st, err := ps.RunResidual(pending, opts)
	if err != nil || !st.Converged {
		t.Fatalf("RunResidual: err=%v stats=%+v", err, st)
	}
	if st.Pushes != 0 {
		t.Fatalf("pure-insert batch outside the G_A pushed %d times", st.Pushes)
	}
	cold := coldScores(t, db, ga, damping)
	if d := maxDiff(t, got, cold); d > residualTol(damping) {
		t.Fatalf("rescaled prior diverged from cold by %g", d)
	}
}

// TestResidualBudgetFallback forces the push budget to zero headroom: the
// run must abandon the localized path, report Fallback, and still return
// scores within the warm iteration's tolerance contract.
func TestResidualBudgetFallback(t *testing.T) {
	const damping = 0.85
	db, g, ps, prior := residualFixture(t, damping)
	pending := ps.NewPending()
	applyAll(t, db, g, ps, citesBatch(t, db, 3, true), pending)

	opts := rank.DefaultOptions()
	opts.Damping = damping
	opts.NormalizeMax = 0
	opts.Warm = prior
	opts.ResidualBudget = 1
	got, st, err := ps.RunResidual(pending, opts)
	if err != nil {
		t.Fatalf("RunResidual: %v", err)
	}
	if !st.Fallback {
		t.Fatalf("budget 1 did not fall back: %+v", st)
	}
	if !st.Converged || !st.WarmStart {
		t.Fatalf("fallback stats %+v", st)
	}
	cold := coldScores(t, db, datagen.DBLPGA1(), damping)
	if d := maxDiff(t, got, cold); d > residualTol(damping) {
		t.Fatalf("fallback diverged from cold by %g", d)
	}
}

// TestResidualValueRank covers value-proportional split recompilation: the
// TPC-H GA1 weights depend on sibling values, so deleting one lineitem
// renormalizes its order's whole row.
func TestResidualValueRank(t *testing.T) {
	const damping = 0.85
	cfg := datagen.DefaultTPCHConfig()
	cfg.ScaleFactor = 0.002
	db, err := datagen.GenerateTPCH(cfg)
	if err != nil {
		t.Fatalf("GenerateTPCH: %v", err)
	}
	g, err := datagraph.Build(db)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	ga := datagen.TPCHGA1()
	ps, err := rank.Compile(g, ga, nil)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	opts := rank.DefaultOptions()
	opts.Damping = damping
	opts.NormalizeMax = 0
	prior, _, err := ps.Run(opts)
	if err != nil {
		t.Fatalf("prior: %v", err)
	}

	li := db.Relation("Lineitem")
	var del relational.DeleteOp
	for i := 0; i < li.Len(); i++ {
		if !li.Deleted(relational.TupleID(i)) {
			del = relational.DeleteOp{Rel: "Lineitem", PK: li.PK(relational.TupleID(i))}
			break
		}
	}
	pending := ps.NewPending()
	applyAll(t, db, g, ps, relational.Batch{Deletes: []relational.DeleteOp{del}}, pending)

	opts.Warm = prior
	got, st, err := ps.RunResidual(pending, opts)
	if err != nil || !st.Converged {
		t.Fatalf("RunResidual: err=%v stats=%+v", err, st)
	}
	cold := coldScores(t, db, ga, damping)
	if d := maxDiff(t, got, cold); d > residualTol(damping) {
		t.Fatalf("ValueRank residual diverged from cold by %g", d)
	}
}

// TestPlansApplyMatchesRecompile pins the plans-level equivalence the
// fallback path relies on: a full Run over incrementally Applied plans is
// bit-for-bit identical to a Run over plans recompiled from the mutated
// graph (rows recomputed from the maintained graph are content-identical,
// and the lazily rebuilt pull transpose preserves the canonical order).
func TestPlansApplyMatchesRecompile(t *testing.T) {
	const damping = 0.85
	db, g, ps, _ := residualFixture(t, damping)
	applyAll(t, db, g, ps, citesBatch(t, db, 4, true), nil)
	if ps.Patched() == 0 {
		t.Fatal("Apply left no overlay rows")
	}

	opts := rank.DefaultOptions()
	opts.Damping = damping
	opts.NormalizeMax = 0
	applied, _, err := ps.Run(opts)
	if err != nil {
		t.Fatalf("applied Run: %v", err)
	}
	fresh, err := rank.Compile(g, datagen.DBLPGA1(), nil)
	if err != nil {
		t.Fatalf("recompile: %v", err)
	}
	recompiled, _, err := fresh.Run(opts)
	if err != nil {
		t.Fatalf("recompiled Run: %v", err)
	}
	for rel, s := range recompiled {
		o := applied[rel]
		if len(s) != len(o) {
			t.Fatalf("%s: lengths %d vs %d", rel, len(s), len(o))
		}
		for i := range s {
			if s[i] != o[i] {
				t.Fatalf("%s[%d]: applied %v vs recompiled %v (must be bitwise identical)", rel, i, o[i], s[i])
			}
		}
	}
}

// ringGA mixes a paper-to-paper hop with direct FK flows through the
// citation tuples so BOTH relations carry and circulate authority, keeping
// every arena slot active. Every node emits exactly `rate` (papers rate/2
// hop + rate/2 to their citation children, citations `rate` back to their
// citing paper), so the flow matrix has uniform column sums and spectral
// radius `rate`; the Paper→Cites→Paper 2-cycles on top of the hop ring
// keep the graph non-bipartite, so the rescue's power-iterated eigenpair
// converges.
func ringGA(rate float64) *rank.GA {
	return rank.NewGA("ring").
		Hop("Cites", 0, 1, rate/2).
		Direct("Cites", 0, false, rate/2).
		Direct("Cites", 0, true, rate)
}

// ringMutated builds a citation ring — papers 1..N, each citing the next
// `fanout` papers ahead and the `fanout` behind — converges ringGA(rate)
// on it, then inserts one long-range citation per paper i < nIns. It
// returns the mutated store, the plans with the batch applied, the
// pending delta and the pre-mutation prior the residual run repairs from.
func ringMutated(t *testing.T, papers, fanout, nIns int, rate, damping float64) (*relational.DB, *rank.Plans, *rank.Pending, relational.DBScores) {
	t.Helper()
	db := relational.NewDB("ring")
	paper := relational.MustNewRelation("Paper",
		[]relational.Column{{Name: "id", Kind: relational.KindInt}}, "id", nil)
	cites := relational.MustNewRelation("Cites",
		[]relational.Column{
			{Name: "id", Kind: relational.KindInt},
			{Name: "citing", Kind: relational.KindInt},
			{Name: "cited", Kind: relational.KindInt},
		}, "id", []relational.ForeignKey{
			{Column: "citing", Ref: "Paper"},
			{Column: "cited", Ref: "Paper"},
		})
	db.MustAddRelation(paper)
	db.MustAddRelation(cites)
	for i := 1; i <= papers; i++ {
		paper.MustInsert(relational.Tuple{relational.IntVal(int64(i))})
	}
	ck := int64(0)
	for i := 0; i < papers; i++ {
		for k := 1; k <= fanout; k++ {
			for _, j := range []int{(i + k) % papers, (i - k + papers) % papers} {
				cites.MustInsert(relational.Tuple{
					relational.IntVal(ck),
					relational.IntVal(int64(i + 1)),
					relational.IntVal(int64(j + 1)),
				})
				ck++
			}
		}
	}
	g, err := datagraph.Build(db)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	ps, err := rank.Compile(g, ringGA(rate), nil)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	opts := rank.DefaultOptions()
	opts.Damping = damping
	opts.NormalizeMax = 0
	prior, st, err := ps.Run(opts)
	if err != nil || !st.Converged {
		t.Fatalf("prior Run: err=%v stats=%+v", err, st)
	}
	var b relational.Batch
	for i := 0; i < nIns; i++ {
		b.Inserts = append(b.Inserts, relational.InsertOp{Rel: "Cites", Tuple: relational.Tuple{
			relational.IntVal(int64(9_000_000 + i)),
			relational.IntVal(int64(i%papers + 1)),
			relational.IntVal(int64((i+papers/2)%papers + 1)),
		}})
	}
	pending := ps.NewPending()
	applyAll(t, db, g, ps, b, pending)
	return db, ps, pending, prior
}

// runResidualBudget runs one residual repair of the pending delta with the
// push budget pinned (0 = the default). RunResidual leaves pending
// untouched, so one delta serves every run.
func runResidualBudget(t *testing.T, ps *rank.Plans, pending *rank.Pending, prior relational.DBScores, damping float64, budget int) (relational.DBScores, rank.Stats) {
	t.Helper()
	opts := rank.DefaultOptions()
	opts.Damping = damping
	opts.NormalizeMax = 0
	opts.Warm = prior
	opts.ResidualBudget = budget
	sc, st, err := ps.RunResidual(pending, opts)
	if err != nil {
		t.Fatalf("RunResidual(budget=%d): %v", budget, err)
	}
	return sc, st
}

// TestResidualEmptyFrontier: a repair with nothing above threshold — no
// batch since the prior converged — runs no rounds and no pushes, reports
// success, and serves the prior unchanged bit for bit.
func TestResidualEmptyFrontier(t *testing.T) {
	const damping = 0.85
	_, _, ps, prior := residualFixture(t, damping)
	got, st := runResidualBudget(t, ps, ps.NewPending(), prior, damping, 0)
	if st.Rounds != 0 || st.Pushes != 0 || st.Fallback || !st.Converged {
		t.Fatalf("empty frontier did work or failed: %+v", st)
	}
	for rel, s := range prior {
		for i := range s {
			if got[rel][i] != s[i] {
				t.Fatalf("%s[%d]: %v vs prior %v", rel, i, got[rel][i], s[i])
			}
		}
	}
}

// TestResidualBudgetTripAtRoundGranularity: a budget that runs out
// mid-repair stops the push before the round that would exceed it — never
// inside one — so the abandoned work never exceeds the budget, the same
// budget trips at the same round every time, and the fallback still lands
// on the cold fixed point.
func TestResidualBudgetTripAtRoundGranularity(t *testing.T) {
	const damping = 0.85
	db, ps, pending, prior := ringMutated(t, 1500, 2, 150, 0.7, damping)
	_, full := runResidualBudget(t, ps, pending, prior, damping, 0)
	if full.Fallback || !full.Converged {
		t.Fatalf("unbudgeted repair did not complete localized: %+v", full)
	}
	const budget = 3000
	if full.Pushes <= budget {
		t.Fatalf("fixture too small: the whole repair takes %d pushes", full.Pushes)
	}
	got, st := runResidualBudget(t, ps, pending, prior, damping, budget)
	if !st.Fallback {
		t.Fatalf("budget %d did not trip: %+v", budget, st)
	}
	if st.Rounds == 0 || st.Pushes == 0 || st.Pushes > budget || st.Rounds >= full.Rounds {
		t.Fatalf("budget %d: %d rounds / %d pushes (full repair %d / %d)", budget, st.Rounds, st.Pushes, full.Rounds, full.Pushes)
	}
	// A budget of exactly the pushes already spent trips before the same
	// round: the cut sits on a round boundary.
	_, again := runResidualBudget(t, ps, pending, prior, damping, st.Pushes)
	if !again.Fallback || again.Rounds != st.Rounds || again.Pushes != st.Pushes {
		t.Fatalf("budget %d: %+v, budget %d: %+v", budget, st, st.Pushes, again)
	}
	cold := coldScores(t, db, ringGA(0.7), damping)
	if d := maxDiff(t, got, cold); d > residualTol(damping) {
		t.Fatalf("fallback diverged from cold by %g (tol %g)", d, residualTol(damping))
	}
}

// TestResidualAccelRescueMatchesCold: a high-damping repair whose push
// trips the budget is finished by the dense Chebyshev rescue, stops with
// its max residual below Epsilon, and lands on the cold fixed point within
// the tolerance both runs' ε stopping rule allows.
func TestResidualAccelRescueMatchesCold(t *testing.T) {
	const damping = 0.99
	db, ps, pending, prior := ringMutated(t, 1500, 2, 150, 0.9, damping)
	got, st := runResidualBudget(t, ps, pending, prior, damping, 0)
	if !st.Accelerated || st.Fallback || !st.Converged {
		t.Fatalf("high-damping ring did not take the accelerated rescue: %+v", st)
	}
	if eps := rank.DefaultOptions().Epsilon; st.MaxDelta >= eps {
		t.Fatalf("rescue stopped at max residual %g, want < %g", st.MaxDelta, eps)
	}
	cold := coldScores(t, db, ringGA(0.9), damping)
	if d := maxDiff(t, got, cold); d > residualTol(damping) {
		t.Fatalf("accelerated rescue diverged from cold by %g (tol %g)", d, residualTol(damping))
	}
}
