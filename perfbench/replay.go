package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"sizelos"
	"sizelos/internal/datagen"
	"sizelos/internal/datagraph"
	"sizelos/internal/durable"
	"sizelos/internal/keyword"
	"sizelos/internal/nodehost"
	"sizelos/internal/ostree"
	"sizelos/internal/rank"
	"sizelos/internal/relational"
	"sizelos/internal/searchexec"
	"sizelos/internal/sizel"
	"sizelos/internal/tenancy"
)

// summaryKey names one memoizable summary as the server's cache does,
// minus the mutation epoch, which a client cannot see.
type summaryKey struct {
	Tenant, Rel, Setting, Algo string
	Tuple                      relational.TupleID
	L                          int
}

// filled returns the read with the server's defaults made explicit.
func filled(r readReq) readReq {
	if r.Setting == "" {
		r.Setting = sizelos.DefaultSetting
	}
	if r.Algo == "" {
		r.Algo = string(sizelos.AlgoTopPath)
	}
	return r
}

// subjects pops the keyword matches a read summarizes: the first Limit
// live matches of a paged search, every live match otherwise. total is
// the stream's match count.
func subjects(eng *sizelos.Engine, o *op) (tuples []relational.TupleID, total int, err error) {
	r := filled(o.Read)
	sc, err := eng.Scores(r.Setting)
	if err != nil {
		return nil, 0, err
	}
	rel := eng.DB().Relation(r.Rel)
	ms := eng.Index().SearchStream(r.Rel, r.Q, sc)
	total = ms.Remaining()
	for {
		if o.Kind == kindSearch && r.Limit > 0 && len(tuples) == r.Limit {
			break
		}
		m, ok := ms.Next()
		if !ok {
			break
		}
		if !rel.Deleted(m.Tuple) {
			tuples = append(tuples, m.Tuple)
		}
	}
	return tuples, total, nil
}

// props are the workload properties later claims must cite, measured on
// the leading keepReads reads against the tenants' state after the run.
type props struct {
	Reads        int
	Ranked       int
	RankedOverK  int
	DistinctKeys int
}

func properties(reg *tenancy.Registry, reads []op) (props, error) {
	p := props{Reads: len(reads)}
	type matchKey struct{ tenant, rel, q, setting string }
	memo := make(map[matchKey][]relational.TupleID)
	totals := make(map[matchKey]int)
	keys := make(map[summaryKey]bool)
	for i := range reads {
		o := &reads[i]
		r := filled(o.Read)
		t, ok := reg.Get(o.Tenant)
		if !ok {
			return p, fmt.Errorf("tenant %s not live", o.Tenant)
		}
		mk := matchKey{o.Tenant, r.Rel, r.Q, r.Setting}
		all, seen := memo[mk]
		if !seen {
			drain := *o
			drain.Kind = kindRanked // every live match
			var err error
			all, totals[mk], err = subjects(t.Engine, &drain)
			if err != nil {
				return p, err
			}
			memo[mk] = all
		}
		tuples := all
		if o.Kind == kindSearch && r.Limit > 0 && len(tuples) > r.Limit {
			tuples = tuples[:r.Limit]
		}
		if o.Kind == kindRanked {
			p.Ranked++
			if totals[mk] > r.K {
				p.RankedOverK++
			}
		}
		for _, tu := range tuples {
			keys[summaryKey{o.Tenant, r.Rel, r.Setting, r.Algo, tu, r.L}] = true
		}
	}
	p.DistinctKeys = len(keys)
	return p, nil
}

// readReplay is the per-layer cost of the read path, from re-running the
// leading reads against the live tenants' public accessors off the clock.
type readReplay struct {
	Ops       int
	StreamNs  int64
	Matches   int64
	Summaries int
	GenNs     int64
	Nodes     int64
	RenderNs  int64
	AlgoNs    map[string]int64
	AlgoN     map[string]int
}

// replayReads re-runs reads in order until the budget is spent. A
// client-side LRU of the server's capacity per tenant decides which
// summaries the server would have had to compute; only those are
// generated, selected and rendered.
func replayReads(tr *tracer, reg *tenancy.Registry, reads []op, budget time.Duration, capacity int) (readReplay, error) {
	rr := readReplay{AlgoNs: make(map[string]int64), AlgoN: make(map[string]int)}
	caches := make(map[string]*searchexec.LRU[summaryKey, struct{}])
	stop := time.Now().Add(budget)
	for i := range reads {
		if time.Now().After(stop) {
			break
		}
		o := &reads[i]
		r := filled(o.Read)
		t, ok := reg.Get(o.Tenant)
		if !ok {
			return rr, fmt.Errorf("tenant %s not live", o.Tenant)
		}
		eng := t.Engine
		sc, err := eng.Scores(r.Setting)
		if err != nil {
			return rr, err
		}
		gds, err := eng.GDS(r.Rel, r.Setting)
		if err != nil {
			return rr, err
		}
		src := ostree.NewGraphSource(eng.Graph(), sc)
		cache := caches[o.Tenant]
		if cache == nil {
			cache = searchexec.NewLRU[summaryKey, struct{}](capacity)
			caches[o.Tenant] = cache
		}
		root := tr.begin("replay.read", o.ID, 0)
		var tuples []relational.TupleID
		var total int
		rr.StreamNs += tr.timed("keyword.stream", o.ID, root.ID, func() {
			tuples, total, err = subjects(eng, o)
		})
		if err != nil {
			return rr, err
		}
		rr.Matches += int64(total)
		for _, tu := range tuples {
			key := summaryKey{o.Tenant, r.Rel, r.Setting, r.Algo, tu, r.L}
			if _, hit := cache.Get(key); hit {
				continue
			}
			var tree *ostree.Tree
			rr.GenNs += tr.timed("ostree.gen", o.ID, root.ID, func() {
				tree, _, err = sizel.PrelimL(src, gds, tu, r.L, sizel.PrelimOptions{MaxDepth: r.L - 1})
			})
			if err != nil {
				return rr, fmt.Errorf("prelim-l OS of %s %d: %w", r.Rel, tu, err)
			}
			var res sizel.Result
			rr.AlgoNs[r.Algo] += tr.timed("sizel."+r.Algo, o.ID, root.ID, func() {
				res, err = selectSizeL(tree, r.L, r.Algo)
			})
			if err != nil {
				return rr, fmt.Errorf("%s on %s %d: %w", r.Algo, r.Rel, tu, err)
			}
			rr.RenderNs += tr.timed("ostree.render", o.ID, root.ID, func() {
				_ = tree.Render(ostree.RenderOptions{Keep: res.Nodes})
			})
			rr.AlgoN[r.Algo]++
			rr.Summaries++
			rr.Nodes += int64(tree.Len())
			cache.Put(key, struct{}{})
		}
		tr.finish(root)
		rr.Ops++
	}
	return rr, nil
}

func selectSizeL(tree *ostree.Tree, l int, algo string) (sizel.Result, error) {
	switch sizelos.Algorithm(algo) {
	case sizelos.AlgoDP:
		return sizel.DP(context.Background(), tree, l)
	case sizelos.AlgoBottomUp:
		return sizel.BottomUp(tree, l)
	default:
		return sizel.TopPath(tree, l, sizel.TopPathOptions{})
	}
}

// writeReplay is the per-layer cost of the write path, from replaying the
// acked batches in order against shadow structures of the write tenant.
type writeReplay struct {
	Batches   int
	RelNs     int64
	KeywordNs int64
	GraphNs   int64
	PlansNs   int64
	RerankMs  []float64 // per re-ranked batch, every setting in turn
	DurableUs []float64 // per batch: WAL-attached minus in-memory Mutate
}

// replayWrites re-applies the acked batches of the write tenant (a DBLP
// dataset) until the budget is spent: once through the layers one by one
// (store, keyword index, data graph, rank plans), and once each through an
// in-memory and a WAL-attached engine.
func replayWrites(tr *tracer, acks []ackRec, budget time.Duration, walDir string) (writeReplay, error) {
	var wr writeReplay
	seed := serverConfig("").Seed
	cfg := datagen.DefaultDBLPConfig()
	cfg.Seed = seed
	db, err := datagen.GenerateDBLP(cfg)
	if err != nil {
		return wr, err
	}
	idx := keyword.BuildSharded(db, keyword.ShardedOptions{})
	g, err := datagraph.Build(db)
	if err != nil {
		return wr, err
	}
	sets := sizelos.DefaultSettings(datagen.DBLPGA1(), datagen.DBLPGA2())
	plans := make(map[*rank.GA]*rank.Plans)
	raw := make(map[string]relational.DBScores)
	for _, s := range sets {
		if plans[s.GA] == nil {
			if plans[s.GA], err = rank.Compile(g, s.GA, nil); err != nil {
				return wr, err
			}
		}
		if raw[s.Name], _, err = plans[s.GA].Run(rankOptions(s, nil)); err != nil {
			return wr, err
		}
	}
	pending := make(map[*rank.GA]*rank.Pending)

	open := func() (*sizelos.Engine, error) { return nodehost.OpenDataset("dblp", seed, nodehost.Config{}) }
	mem, err := open()
	if err != nil {
		return wr, err
	}
	store, err := durable.Open(durable.NewDirFS(walDir), durable.Options{})
	if err != nil {
		return wr, err
	}
	ts := store.Tenant("replay")
	logged, _, err := ts.Recover(sizelos.RestoreDBLP, open)
	if err != nil {
		return wr, err
	}
	// The replay WAL is scratch, removed with the run directory; a failed
	// close loses nothing the benchmark reads.
	defer func() { _ = ts.Close() }()

	stop := time.Now().Add(budget)
	for _, a := range acks {
		if time.Now().After(stop) {
			break
		}
		o := a.Op
		root := tr.begin("replay.write", o.ID, 0)
		var res relational.BatchResult
		wr.RelNs += tr.timed("relational.apply", o.ID, root.ID, func() {
			res, err = db.Apply(relationalBatch(o.Batch))
		})
		if err != nil {
			return wr, fmt.Errorf("shadow store rejected an acked batch: %w", err)
		}
		rels := make([]string, 0, len(res.Versions))
		for rel := range res.Versions {
			rels = append(rels, rel)
		}
		sort.Strings(rels)
		wr.KeywordNs += tr.timed("keyword.apply", o.ID, root.ID, func() {
			for _, rel := range rels {
				idx.Apply(rel, res.Inserted[rel], res.Deleted[rel])
			}
		})
		wr.GraphNs += tr.timed("datagraph.apply", o.ID, root.ID, func() { err = g.Apply(res) })
		if err != nil {
			return wr, err
		}
		wr.PlansNs += tr.timed("rank.apply", o.ID, root.ID, func() {
			for ga, ps := range plans {
				if pending[ga] == nil {
					pending[ga] = ps.NewPending()
				}
				if err = ps.Apply(res, pending[ga]); err != nil {
					return
				}
			}
		})
		if err != nil {
			return wr, err
		}
		if o.Batch.Rerank {
			ns := tr.timed("rank.residual", o.ID, root.ID, func() {
				for _, s := range sets {
					var sc relational.DBScores
					sc, _, err = plans[s.GA].RunResidual(pending[s.GA], rankOptions(s, raw[s.Name]))
					if err != nil {
						return
					}
					raw[s.Name] = sc
				}
			})
			if err != nil {
				return wr, err
			}
			pending = make(map[*rank.GA]*rank.Pending)
			wr.RerankMs = append(wr.RerankMs, float64(ns)/1e6)
		}
		var memNs, walNs int64
		memNs = tr.timed("engine.mutate.memory", o.ID, root.ID, func() { _, err = mem.Mutate(o.Batch) })
		if err != nil {
			return wr, err
		}
		walNs = tr.timed("engine.mutate.wal", o.ID, root.ID, func() { _, err = logged.Mutate(o.Batch) })
		if err != nil {
			return wr, err
		}
		wr.DurableUs = append(wr.DurableUs, float64(walNs-memNs)/1e3)
		tr.finish(root)
		wr.Batches++
	}
	return wr, nil
}

// rankOptions are the engine's re-rank options for one setting: raw
// (unnormalized) scores, warm-started from the previous fixed point.
func rankOptions(s sizelos.Setting, warm relational.DBScores) rank.Options {
	opts := rank.DefaultOptions()
	opts.Damping = s.Damping
	opts.NormalizeMax = 0
	opts.Warm = warm
	return opts
}
