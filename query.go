package sizelos

import (
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"

	"sizelos/internal/keyword"
	"sizelos/internal/relational"
	"sizelos/internal/searchexec"
)

// This file is the engine's unified query surface: one request struct, one
// entry point, and a lazy Results stream that pipelines candidate matching
// -> summary computation (cache-first, pool-bounded) -> size-l rendering,
// paying only for the prefix the caller consumes. QueryPage drains the same
// pipeline to one page, so the streaming and paged surfaces cannot diverge.

// ErrStreamInvalidated reports that a mutation landed inside the query's
// dependency set between pages (or between batch fills of one open
// Results): the pre-mutation stream position is meaningless against the
// post-mutation state, so the engine refuses to serve a torn view. Re-issue
// the query without a cursor to start over. HTTP maps it to 410 Gone.
var ErrStreamInvalidated = errors.New("sizelos: stream invalidated by mutation")

// ErrCursorMalformed reports a cursor that never came from this engine
// (truncated, corrupted, or hand-built). HTTP maps it to 400 Bad Request.
var ErrCursorMalformed = errors.New("sizelos: malformed cursor")

// QueryRequest is the one-struct query surface. The zero value of every
// optional field means "default": Setting DefaultSetting, Algorithm
// AlgoTopPath, Limit 0 = no page bound, K 0 = no rank cutoff.
type QueryRequest struct {
	// Rel is the Data Subject relation the keywords are matched against.
	Rel string
	// Query is the keyword string (logical AND over its tokens).
	Query string
	// L is the summary size budget l.
	L int

	// Setting selects the ranking configuration (default DefaultSetting).
	Setting string
	// Algorithm selects the size-l method (default AlgoTopPath).
	Algorithm Algorithm

	// RankBySummary re-ranks candidates by the importance Im(S) of their
	// size-l OS instead of serving them in DS global-importance order: the
	// combined size-l and top-k ranking of OSs the paper leaves as future
	// work (§7), under which a DS whose neighborhood is important outranks a
	// well-connected but shallow one. It must select every candidate's
	// size-l OS before the first result, so it cannot terminate early, but
	// it renders the text of only the K winners.
	RankBySummary bool
	// K, with RankBySummary, caps the ranking to the best K summaries
	// (0 = rank everything). It bounds the result set, not the page: use
	// Limit/Cursor to page through the K.
	K int

	// Limit bounds how many summaries this request produces (0 = all).
	// Unconsumed matches stay uncomputed — the whole point of the
	// streaming surface — and Cursor() resumes after the served prefix.
	Limit int
	// Cursor resumes a previous request after its last served summary.
	// It must come from Results.Cursor (or the HTTP response) of a request
	// with identical parameters; a mutation in between invalidates it
	// (ErrStreamInvalidated).
	Cursor string

	// Complete computes from the complete OS instead of the prelim-l OS
	// (SearchOptions.Complete).
	Complete bool
	// FromDatabase extracts tuples with database joins instead of the
	// in-memory data graph.
	FromDatabase bool
	// ShowWeights annotates rendered summaries with local importance.
	ShowWeights bool

	// Parallel bounds the per-batch summary workers (0 = GOMAXPROCS).
	Parallel int
	// Pool, when non-nil, bounds summary work by a shared concurrency
	// budget (see SearchOptions.Pool).
	Pool *searchexec.Pool
	// CacheScope namespaces summary-cache entries (see
	// SearchOptions.CacheScope).
	CacheScope string
}

// options lowers the request onto the knob struct the summary pipeline
// speaks, with defaults filled.
func (req *QueryRequest) options() SearchOptions {
	opts := SearchOptions{
		Setting:      req.Setting,
		Algorithm:    req.Algorithm,
		Complete:     req.Complete,
		FromDatabase: req.FromDatabase,
		ShowWeights:  req.ShowWeights,
		Parallel:     req.Parallel,
		Pool:         req.Pool,
		CacheScope:   req.CacheScope,
	}
	opts.fill()
	return opts
}

// fingerprint hashes every request parameter that shapes the result
// sequence (not the paging: Limit, Cursor, Parallel and Pool change how the
// sequence is consumed, never what it contains). A cursor binds to this
// value so it can only resume the query that minted it.
func (req *QueryRequest) fingerprint(opts SearchOptions) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s\x00%s\x00%d\x00%s\x00%s\x00%t\x00%d\x00%t\x00%t\x00%t\x00%s",
		req.Rel, req.Query, req.L, opts.Setting, opts.Algorithm,
		req.RankBySummary, req.K,
		opts.Complete, opts.FromDatabase, opts.ShowWeights, opts.CacheScope)
	return h.Sum64()
}

// cursorWire is the decoded opaque cursor: which query it belongs to, the
// engine state it was minted against, and how many keyword matches the
// served prefix consumed (including tombstoned matches that were skipped,
// so a resume replays to exactly the same stream position).
type cursorWire struct {
	Fingerprint uint64
	Epoch       uint64
	Consumed    uint64
}

const cursorWireLen = 24

func encodeCursor(w cursorWire) string {
	var b [cursorWireLen]byte
	binary.BigEndian.PutUint64(b[0:8], w.Fingerprint)
	binary.BigEndian.PutUint64(b[8:16], w.Epoch)
	binary.BigEndian.PutUint64(b[16:24], w.Consumed)
	return base64.RawURLEncoding.EncodeToString(b[:])
}

func decodeCursor(s string) (cursorWire, error) {
	raw, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil || len(raw) != cursorWireLen {
		return cursorWire{}, fmt.Errorf("%w: %q", ErrCursorMalformed, s)
	}
	return cursorWire{
		Fingerprint: binary.BigEndian.Uint64(raw[0:8]),
		Epoch:       binary.BigEndian.Uint64(raw[8:16]),
		Consumed:    binary.BigEndian.Uint64(raw[16:24]),
	}, nil
}

// QueryStats counts what one Results actually did — the observable proof of
// early termination: a limit-10 query over thousands of matches reports
// Summaries == 10.
type QueryStats struct {
	// Matches is the total keyword-match count of the query (what a full
	// drain would have to summarize).
	Matches int
	// Summaries is how many size-l summaries this Results produced
	// (computed or served from cache).
	Summaries int
	// Rendered is how many of those summaries' text this Results rendered:
	// summaries served from cache with their text count in Summaries only,
	// and a RankBySummary query renders at most its K winners however many
	// candidates it ranks.
	Rendered int
	// Skipped counts matches dropped because their DS tuple was tombstoned
	// between indexing and serving; the stream backfills from the next
	// rank instead of failing the query.
	Skipped int
}

// Results is a lazy stream of size-l summaries in serving order. Pull with
// Next (or Drain); only the consumed prefix is ever summarized. A Results
// is single-goroutine; it holds no background workers, so abandoning one
// leaks nothing. Between batch fills the engine may mutate — the next fill
// then fails with ErrStreamInvalidated rather than serving a torn view.
type Results struct {
	eng  *Engine
	req  QueryRequest
	opts SearchOptions
	// epoch is the dependency-set epoch the stream bound to at open.
	epoch uint64
	// stream yields keyword matches best-first; nil once Closed.
	stream *keyword.MatchStream

	// holdLock marks a Results opened and drained entirely under the
	// engine read lock the caller already holds (QueryPage); fills must not
	// re-acquire it.
	holdLock bool

	// Streaming mode: buf holds the current summarized batch,
	// bufConsumed[i] the cumulative match-pop count through buf[i] (the
	// cursor position after serving it), bufPos the serve offset.
	buf         []Summary
	bufConsumed []int
	bufPos      int
	// popped counts stream pops since the original query start (resume
	// included), served the pop count through the last served summary.
	popped int
	served int

	// Ranked mode (RankBySummary): the sorted, K-truncated, rendered
	// summaries and the serve offset.
	rankMode    bool
	rankedBuilt bool
	ranked      []Summary
	rankedPos   int
	// resumeConsumed is the cursor's served count, applied to rankedPos
	// once the ranking is built.
	resumeConsumed int

	emitted   int
	exhausted bool
	done      bool
	err       error
	stats     QueryStats
}

// Query opens a lazy summary stream for req. The keyword frontier is built
// under the engine read lock (one consistent state); each subsequent batch
// fill re-acquires it and verifies no mutation has landed in the query's
// dependency set — if one has, the stream fails with ErrStreamInvalidated
// instead of mixing pre- and post-mutation state.
func (e *Engine) Query(req QueryRequest) (*Results, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.queryLocked(req, false)
}

// QueryPage opens req and drains it to its Limit under one engine read
// lock, returning the page, the resume cursor ("" when the query is fully
// served) and the stats. This is the HTTP serving shape: a page is always
// internally consistent, and only a cursor resume can observe
// ErrStreamInvalidated.
func (e *Engine) QueryPage(req QueryRequest) ([]Summary, string, QueryStats, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	r, err := e.queryLocked(req, true)
	if err != nil {
		return nil, "", QueryStats{}, err
	}
	page, err := r.Drain()
	if err != nil {
		return nil, "", QueryStats{}, err
	}
	cursor, _ := r.Cursor()
	return page, cursor, r.Stats(), nil
}

// queryLocked validates req and binds a Results to the current engine
// state. Callers hold at least the read lock.
func (e *Engine) queryLocked(req QueryRequest, holdLock bool) (*Results, error) {
	opts := req.options()
	if req.Limit < 0 {
		return nil, fmt.Errorf("sizelos: negative limit %d", req.Limit)
	}
	if req.K < 0 {
		return nil, fmt.Errorf("sizelos: negative k %d", req.K)
	}
	sc, err := e.scoresLocked(opts.Setting)
	if err != nil {
		return nil, err
	}
	epoch := e.epochForLocked(req.Rel)
	var resume cursorWire
	if req.Cursor != "" {
		resume, err = decodeCursor(req.Cursor)
		if err != nil {
			return nil, err
		}
		if resume.Fingerprint != req.fingerprint(opts) {
			return nil, fmt.Errorf("%w: cursor belongs to a different query", ErrStreamInvalidated)
		}
		if resume.Epoch != epoch {
			return nil, fmt.Errorf("%w: engine state changed since the cursor was issued", ErrStreamInvalidated)
		}
	}
	r := &Results{
		eng:      e,
		req:      req,
		opts:     opts,
		epoch:    epoch,
		stream:   e.index.SearchStream(req.Rel, req.Query, sc),
		holdLock: holdLock,
		rankMode: req.RankBySummary,
	}
	r.stats.Matches = r.stream.Remaining()
	if req.Cursor != "" {
		n := int(resume.Consumed)
		if !r.rankMode {
			// Replay to the cursor position: the epoch matched, so the
			// stream emits the identical sequence and skipping n pops
			// lands exactly after the last served summary.
			for i := 0; i < n; i++ {
				if _, ok := r.stream.Next(); !ok {
					break
				}
			}
			r.popped = n
		}
		r.resumeConsumed = n
		r.served = n
	}
	return r, nil
}

// Next serves the next summary; ok is false once the stream is exhausted,
// the Limit is reached, or an error occurred (check Err). Summaries arrive
// in descending DS global importance (or descending Im(S) under
// RankBySummary) and are computed at most one batch ahead of consumption.
func (r *Results) Next() (Summary, bool) {
	if r.err != nil || r.done {
		return Summary{}, false
	}
	if r.req.Limit > 0 && r.emitted >= r.req.Limit {
		r.done = true
		return Summary{}, false
	}
	if r.rankMode {
		return r.nextRanked()
	}
	for r.bufPos >= len(r.buf) {
		if r.exhausted {
			r.done = true
			return Summary{}, false
		}
		if err := r.fill(); err != nil {
			r.err = err
			return Summary{}, false
		}
	}
	s := r.buf[r.bufPos]
	r.served = r.bufConsumed[r.bufPos]
	r.bufPos++
	r.emitted++
	return s, true
}

// fill summarizes the next batch under the engine read lock (unless the
// caller already holds it), first checking that no mutation invalidated
// the stream.
func (r *Results) fill() error {
	if !r.holdLock {
		r.eng.mu.RLock()
		defer r.eng.mu.RUnlock()
		if r.eng.epochForLocked(r.req.Rel) != r.epoch {
			return ErrStreamInvalidated
		}
	}
	return r.fillLocked()
}

// fillLocked pops up to one batch of matches off the frontier —
// tombstoned subjects are skipped and backfilled from the next rank, a
// match pointing outside the relation fails the query — and summarizes
// them across the worker pool. Batches are sized to the parallel width and
// capped by the remaining Limit, so a limit-k query never summarizes
// meaningfully more than k candidates no matter how many match.
func (r *Results) fillLocked() error {
	e := r.eng
	batch := r.opts.Parallel
	if batch <= 0 {
		batch = runtime.GOMAXPROCS(0)
	}
	if r.req.Limit > 0 {
		if rem := r.req.Limit - r.emitted; rem < batch {
			batch = rem
		}
	}
	if batch < 1 {
		batch = 1
	}
	matches := make([]keyword.Match, 0, batch)
	consumedAt := make([]int, 0, batch)
	for len(matches) < batch {
		m, ok := r.stream.Next()
		if !ok {
			r.exhausted = true
			break
		}
		r.popped++
		skip, err := e.classifySubject(r.req.Rel, m.Tuple)
		if err != nil {
			return err
		}
		if skip {
			r.stats.Skipped++
			continue
		}
		matches = append(matches, m)
		consumedAt = append(consumedAt, r.popped)
	}
	sums, err := e.summarizeSliceLocked(r.req.Rel, matches, r.req.L, r.opts)
	if err != nil {
		return err
	}
	r.buf, r.bufConsumed, r.bufPos = sums, consumedAt, 0
	r.stats.Summaries += len(sums)
	r.stats.Rendered += e.renderSliceLocked(r.req.Rel, sums, r.req.L, r.opts)
	return nil
}

// nextRanked serves from the Im(S) ranking, building it on first pull.
// Ranking by summary importance requires every candidate's size-l
// selection up front — early termination structurally cannot apply — but
// only the K winners are rendered, and paging through the ranked list
// stays lazy and cursor-resumable.
func (r *Results) nextRanked() (Summary, bool) {
	if !r.rankedBuilt {
		if err := r.buildRanked(); err != nil {
			r.err = err
			return Summary{}, false
		}
	}
	if r.rankedPos >= len(r.ranked) {
		r.done = true
		return Summary{}, false
	}
	s := r.ranked[r.rankedPos]
	r.rankedPos++
	r.served = r.rankedPos
	r.emitted++
	return s, true
}

func (r *Results) buildRanked() error {
	if !r.holdLock {
		r.eng.mu.RLock()
		defer r.eng.mu.RUnlock()
		if r.eng.epochForLocked(r.req.Rel) != r.epoch {
			return ErrStreamInvalidated
		}
	}
	e := r.eng
	var matches []keyword.Match
	for {
		m, ok := r.stream.Next()
		if !ok {
			break
		}
		skip, err := e.classifySubject(r.req.Rel, m.Tuple)
		if err != nil {
			return err
		}
		if skip {
			r.stats.Skipped++
			continue
		}
		matches = append(matches, m)
	}
	// Select every candidate but render only the winners: Im(S) decides
	// the ranking, and the text of a candidate cut below K is never read.
	sums, err := e.summarizeSliceLocked(r.req.Rel, matches, r.req.L, r.opts)
	if err != nil {
		return err
	}
	r.stats.Summaries = len(sums)
	sort.SliceStable(sums, func(a, b int) bool {
		if sums[a].Result.Importance != sums[b].Result.Importance {
			return sums[a].Result.Importance > sums[b].Result.Importance
		}
		return sums[a].Tuple < sums[b].Tuple
	})
	if r.req.K > 0 && len(sums) > r.req.K {
		sums = sums[:r.req.K]
	}
	r.stats.Rendered = e.renderSliceLocked(r.req.Rel, sums, r.req.L, r.opts)
	r.ranked = sums
	r.rankedPos = r.resumeConsumed
	if r.rankedPos > len(r.ranked) {
		r.rankedPos = len(r.ranked)
	}
	r.rankedBuilt = true
	r.exhausted = true
	return nil
}

// Drain consumes the stream to its Limit (or exhaustion) and returns every
// summary. The slice is non-nil even when empty.
func (r *Results) Drain() ([]Summary, error) {
	out := make([]Summary, 0, r.drainCap())
	for {
		s, ok := r.Next()
		if !ok {
			break
		}
		out = append(out, s)
	}
	if r.err != nil {
		return nil, r.err
	}
	return out, nil
}

// drainCap estimates how many summaries a full drain will produce.
func (r *Results) drainCap() int {
	n := r.stats.Matches
	if r.req.Limit > 0 && r.req.Limit < n {
		n = r.req.Limit
	}
	if r.rankMode && r.req.K > 0 && r.req.K < n {
		n = r.req.K
	}
	return n
}

// Err returns the error that stopped the stream, if any. Exhaustion and
// reaching the Limit are not errors.
func (r *Results) Err() error { return r.err }

// Stats reports what the stream has done so far. Summaries < Matches on a
// limited query is the early-termination guarantee made observable.
func (r *Results) Stats() QueryStats { return r.stats }

// Cursor returns the opaque resume token for the served prefix; ok is
// false when the query is fully served (nothing left to resume) or the
// stream failed. Pass the token as QueryRequest.Cursor — with otherwise
// identical parameters — to continue; if a mutation has landed in the
// meantime the resume fails with ErrStreamInvalidated.
func (r *Results) Cursor() (cursor string, ok bool) {
	if r.err != nil || r.stream == nil {
		return "", false
	}
	var more bool
	if r.rankMode {
		if r.rankedBuilt {
			more = r.rankedPos < len(r.ranked)
		} else {
			more = r.stats.Matches > r.resumeConsumed
		}
	} else {
		more = r.bufPos < len(r.buf) || r.stream.Remaining() > 0
	}
	if !more {
		return "", false
	}
	return encodeCursor(cursorWire{
		Fingerprint: r.req.fingerprint(r.opts),
		Epoch:       r.epoch,
		Consumed:    uint64(r.served),
	}), true
}

// Close releases the stream's buffered state. Optional — a Results holds
// no goroutines, locks or finalizable resources — but dropping the
// references early helps when a large page is abandoned mid-iteration.
func (r *Results) Close() {
	r.done = true
	r.stream = nil
	r.buf, r.bufConsumed, r.ranked = nil, nil, nil
}

// classifySubject decides what a keyword match pointing at (dsRel, tuple)
// means for a stream: serve it (false, nil), skip-and-backfill a tombstone
// (true, nil), or fail the query on coordinates that cannot have come from
// this engine's index (false, err).
func (e *Engine) classifySubject(dsRel string, tuple relational.TupleID) (skip bool, err error) {
	r := e.db.Relation(dsRel)
	if r == nil {
		return false, fmt.Errorf("sizelos: unknown relation %q", dsRel)
	}
	if tuple < 0 || int(tuple) >= r.Len() {
		return false, fmt.Errorf("sizelos: tuple %d out of range for %s (%d tuples)", tuple, dsRel, r.Len())
	}
	if r.Deleted(tuple) {
		return true, nil
	}
	return false, nil
}
