package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math/rand"
	"net/url"
	"strconv"

	"sizelos"
	"sizelos/internal/mutgen"
	"sizelos/internal/relational"
	"sizelos/internal/tenancy"
)

// The three workloads. Each stresses a different part of the deployment;
// see BENCHMARK.json for the one-line reasons and README.md for the detail.
const (
	searchHot     = "search-hot"
	summarizeCold = "summarize-cold"
	writeMix      = "write-mix"
)

var workloadNames = []string{searchHot, summarizeCold, writeMix}

// Operation kinds, also the latency classes of the report.
const (
	kindSearch = "search"
	kindRanked = "ranked"
	kindMutate = "mutate"
)

// nClients is the closed-loop client count: every caller waits for its
// reply, and a 2-core box cannot hold more concurrent callers steady.
const nClients = 2

// tenantDefs lists the name=dataset definitions a workload boots.
func tenantDefs(w string) []string {
	if w == summarizeCold {
		return []string{"dblp=dblp", "tpch=tpch"}
	}
	return []string{"dblp=dblp"}
}

// hotQueries are Author-name queries (famous authors, surnames, given
// names) drawn Zipf-skewed, so a few distinct summaries serve most reads.
var hotQueries = []string{
	"Faloutsos", "Agrawal", "Christos Faloutsos", "Mamoulis", "Chen",
	"Papadias", "Wang", "Nikos", "Kumar", "Maria", "Wei", "Elena",
}

// titleWords mirrors the DBLP generator's title vocabulary: single words
// match about 500 papers, pairs about 50.
var titleWords = []string{
	"Efficient", "Scalable", "Adaptive", "Distributed", "Parallel",
	"Indexing", "Querying", "Mining", "Clustering", "Ranking", "Searching",
	"Summarization", "Estimation", "Sampling", "Caching", "Joins",
	"Keyword", "Spatial", "Temporal", "Streaming", "Relational", "Graph",
	"Multimedia", "Similarity", "Declustering", "Fractals", "Power-law",
	"Topology", "Multicast", "Animation", "Databases", "Networks",
	"Systems", "Structures", "Algorithms", "Models",
}

var (
	algorithms = []string{string(sizelos.AlgoTopPath), string(sizelos.AlgoBottomUp), string(sizelos.AlgoDP)}
	settings   = []string{"GA1-d1", "GA1-d2", "GA1-d3", "GA2-d1"}
)

// readReq is one /search or /ranked request.
type readReq struct {
	Rel, Q, Setting, Algo string
	L, Limit, K           int
}

// op is one client operation of the generated stream.
type op struct {
	ID     int64 // client<<40 | seq
	Client int
	Kind   string
	Tenant string
	Read   readReq
	// Mutations: the batch as the server will apply it, its JSON body and
	// the ledger token it inserts.
	Batch sizelos.MutationBatch
	Body  []byte
	Token string
	// shadow is the generator-side part of Batch (without the token
	// insert), applied to the client's shadow once the batch is acked.
	shadow relational.Batch
}

// path is the request path of a read op.
func (o *op) path() string {
	v := url.Values{}
	v.Set("rel", o.Read.Rel)
	v.Set("q", o.Read.Q)
	v.Set("l", strconv.Itoa(o.Read.L))
	if o.Read.Setting != "" {
		v.Set("setting", o.Read.Setting)
	}
	if o.Read.Algo != "" {
		v.Set("algo", o.Read.Algo)
	}
	if o.Kind == kindRanked {
		v.Set("k", strconv.Itoa(o.Read.K))
	} else if o.Read.Limit > 0 {
		v.Set("limit", strconv.Itoa(o.Read.Limit))
	}
	return "/v1/" + o.Tenant + "/" + o.Kind + "?" + v.Encode()
}

// streamConfig fixes everything a stream depends on besides the seed.
type streamConfig struct {
	Workload string
	Seed     int64
	// Customers is the TPC-H Customer count (summarize-cold draws
	// single-subject searches over it).
	Customers int
	// Shadow is the write-mix generator's copy of the DBLP dataset; client
	// 0 mutates it as its batches are acked.
	Shadow *relational.DB
}

// Every rerankEvery-th write-mix batch re-ranks.
const rerankEvery = 8

// Primary keys of ledger-token Authors sit far above the generators' (the
// dataset's and mutgen's, which starts at 10,000,000).
const tokenPKBase = 20_000_000

// stream generates one client's deterministic operation sequence.
type stream struct {
	cfg    streamConfig
	client int
	rng    *rand.Rand
	zipf   *rand.Zipf
	seq    int
	tokens int
	deck   []int       // summarize-cold combinations left in this round
	cold   int         // summarize-cold reads so far
	gen    *mutgen.Gen // write-mix client 0 only
}

func newStream(cfg streamConfig, client int) *stream {
	rng := rand.New(rand.NewSource(cfg.Seed*1_000_003 + int64(client)*7919))
	s := &stream{
		cfg:    cfg,
		client: client,
		rng:    rng,
		zipf:   rand.NewZipf(rng, 1.1, 1, uint64(len(hotQueries)-1)),
	}
	if cfg.Workload == writeMix && client == 0 {
		s.gen = mutgen.New(cfg.Shadow, cfg.Seed)
	}
	return s
}

// next returns the client's next operation.
func (s *stream) next() op {
	o := op{ID: int64(s.client)<<40 | int64(s.seq), Client: s.client}
	seq := s.seq
	s.seq++
	switch s.cfg.Workload {
	case searchHot:
		s.hotRead(&o)
	case summarizeCold:
		s.coldRead(&o)
	case writeMix:
		if s.gen != nil && seq%2 == 0 {
			s.writeBatch(&o)
		} else {
			s.hotRead(&o)
		}
	}
	return o
}

func (s *stream) hotRead(o *op) {
	o.Tenant = "dblp"
	q := hotQueries[s.zipf.Uint64()]
	if s.rng.Intn(10) == 0 {
		o.Kind = kindRanked
		o.Read = readReq{Rel: "Author", Q: q, L: 15, K: 5}
		return
	}
	o.Kind = kindSearch
	o.Read = readReq{Rel: "Author", Q: q, L: 15, Limit: 10}
}

// coldCombos is the number of (algorithm, setting, l) combinations
// summarize-cold draws from: 3 × 4 × 26 (l = 5..30).
const coldCombos = 3 * 4 * 26

// coldCycle fixes the shares of the four request types. The DBLP types
// take two thirds of each class (/ranked, /search), so each class median
// sits inside one mode instead of on the edge between two.
var coldCycle = [...]int{0, 1, 0, 1, 2, 3}

// coldRead takes the request type from coldCycle and the (algorithm,
// setting, l) combination from a shuffled deck, so every run covers them in
// equal shares whatever its length; the seed sets the order and the query
// words.
func (s *stream) coldRead(o *op) {
	if len(s.deck) == 0 {
		s.deck = s.rng.Perm(coldCombos)
	}
	c := s.deck[0]
	s.deck = s.deck[1:]
	algo := algorithms[c%3]
	setting := settings[c/3%4]
	l := 5 + c/12
	kind := coldCycle[s.cold%len(coldCycle)]
	s.cold++
	switch kind {
	case 0: // ranked over the ~500 papers of one title word
		o.Tenant, o.Kind = "dblp", kindRanked
		o.Read = readReq{Rel: "Paper", Q: titleWords[s.rng.Intn(len(titleWords))], K: 10}
	case 1: // drain the ~50 papers of a title-word pair
		a := s.rng.Intn(len(titleWords))
		b := (a + 1 + s.rng.Intn(len(titleWords)-1)) % len(titleWords)
		o.Tenant, o.Kind = "dblp", kindSearch
		o.Read = readReq{Rel: "Paper", Q: titleWords[a] + " " + titleWords[b]}
	case 2: // one customer: a large OS through Orders and Lineitem
		o.Tenant, o.Kind = "tpch", kindSearch
		o.Read = readReq{Rel: "Customer", Q: fmt.Sprintf("%06d", 1+s.rng.Intn(s.cfg.Customers))}
	default: // ranked over every supplier
		o.Tenant, o.Kind = "tpch", kindRanked
		o.Read = readReq{Rel: "Supplier", Q: "Supplier", K: 10}
	}
	o.Read.L, o.Read.Algo, o.Read.Setting = l, algo, setting
}

// writeBatch draws a schema-valid batch against the shadow and adds one
// ledger-token Author insert; every rerankEvery-th batch re-ranks.
func (s *stream) writeBatch(o *op) {
	n := s.tokens
	s.tokens++
	o.Tenant, o.Kind = "dblp", kindMutate
	o.shadow = s.gen.NextBatch()
	o.Token = ledgerToken(n)
	full := relational.Batch{
		Deletes: o.shadow.Deletes,
		Inserts: append(append([]relational.InsertOp(nil), o.shadow.Inserts...), ledgerInsert(n)),
	}
	o.Batch, o.Body = encodeBatch(full, n%rerankEvery == rerankEvery-1)
}

func ledgerToken(n int) string { return fmt.Sprintf("ledger%d", n) }

// ledgerInsert adds the Author that carries ledger token n.
func ledgerInsert(n int) relational.InsertOp {
	return relational.InsertOp{Rel: "Author", Tuple: relational.Tuple{
		relational.IntVal(tokenPKBase + int64(n)),
		relational.StrVal("Ledger " + ledgerToken(n)),
	}}
}

// acked applies an acknowledged batch to the generator's shadow. The token
// inserts stay out of the shadow so mutgen never deletes or references a
// ledger Author.
func (s *stream) acked(o *op) error {
	if s.gen == nil || o.Kind != kindMutate {
		return nil
	}
	_, err := s.cfg.Shadow.Apply(o.shadow)
	return err
}

// encodeBatch renders a relational batch as the engine batch and the
// POST /tuples body the server decodes back into the same tuples.
func encodeBatch(b relational.Batch, rerank bool) (sizelos.MutationBatch, []byte) {
	mb := sizelos.MutationBatch{Rerank: rerank}
	body := tenancy.MutateRequest{Rerank: rerank}
	for _, d := range b.Deletes {
		mb.Deletes = append(mb.Deletes, sizelos.TupleDelete{Rel: d.Rel, PK: d.PK})
		body.Deletes = append(body.Deletes, tenancy.DeleteJSON{Rel: d.Rel, PK: d.PK})
	}
	for _, in := range b.Inserts {
		mb.Inserts = append(mb.Inserts, sizelos.TupleInsert{Rel: in.Rel, Tuple: in.Tuple})
		vals := make([]any, len(in.Tuple))
		for i, v := range in.Tuple {
			switch v.Kind {
			case relational.KindInt:
				vals[i] = v.Int
			case relational.KindFloat:
				vals[i] = v.Float
			default:
				vals[i] = v.Str
			}
		}
		body.Inserts = append(body.Inserts, tenancy.InsertJSON{Rel: in.Rel, Values: vals})
	}
	raw, err := json.Marshal(body)
	if err != nil {
		panic(err) // only basic kinds: unreachable
	}
	return mb, raw
}

// relationalBatch is the store-level form of an engine batch.
func relationalBatch(b sizelos.MutationBatch) relational.Batch {
	var rb relational.Batch
	for _, d := range b.Deletes {
		rb.Deletes = append(rb.Deletes, relational.DeleteOp{Rel: d.Rel, PK: d.PK})
	}
	for _, in := range b.Inserts {
		rb.Inserts = append(rb.Inserts, relational.InsertOp{Rel: in.Rel, Tuple: in.Tuple})
	}
	return rb
}

// digestOps is how many leading ops of each client the stream digest
// covers: enough to pin the mix, independent of how fast the run went.
const digestOps = 500

// streamDigest hashes the canonical form of the first digestOps ops of
// every client.
type streamDigest struct {
	h    [nClients]hash.Hash
	seen [nClients]int
}

func newStreamDigest() *streamDigest {
	d := &streamDigest{}
	for i := range d.h {
		d.h[i] = sha256.New()
	}
	return d
}

func (d *streamDigest) add(o *op) {
	if d.seen[o.Client] >= digestOps {
		return
	}
	d.seen[o.Client]++
	if o.Kind == kindMutate {
		fmt.Fprintf(d.h[o.Client], "%s %s %s\n", o.Kind, o.Tenant, o.Body)
		return
	}
	fmt.Fprintf(d.h[o.Client], "%s\n", o.path())
}

func (d *streamDigest) sum() string {
	all := sha256.New()
	for i := range d.h {
		all.Write(d.h[i].Sum(nil))
	}
	return hex.EncodeToString(all.Sum(nil))[:16]
}
