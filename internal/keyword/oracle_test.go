package keyword

import (
	"reflect"
	"sort"
	"testing"

	"sizelos/internal/relational"
)

// oracle is the brute-force keyword reference every index test checks
// Sharded against. It shares no code with the index beyond Tokenize (the
// definition of a token): each live tuple is tokenized into a set, a query
// keeps the tuples whose sets hold every keyword, and a full sort orders
// them by score desc, then tuple asc.
type oracle struct {
	// sets[rel][tuple] is the token set of one live tuple (nil for
	// tombstones and tuples without string content).
	sets map[string][]map[string]bool
	// postings[rel][token] lists, ascending, the live tuples holding token.
	postings map[string]map[string][]relational.TupleID
}

// newOracle scans every live tuple of db. Rebuild it after mutating db.
func newOracle(db *relational.DB) *oracle {
	o := &oracle{
		sets:     make(map[string][]map[string]bool, len(db.Relations)),
		postings: make(map[string]map[string][]relational.TupleID),
	}
	for _, r := range db.Relations {
		sets := make([]map[string]bool, r.Len())
		for ti := range sets {
			id := relational.TupleID(ti)
			if r.Deleted(id) {
				continue
			}
			for ci, col := range r.Columns {
				if col.Kind != relational.KindString {
					continue
				}
				for _, tok := range Tokenize(r.Tuples[ti][ci].Str) {
					if sets[ti] == nil {
						sets[ti] = make(map[string]bool)
					}
					if sets[ti][tok] {
						continue
					}
					sets[ti][tok] = true
					if o.postings[r.Name] == nil {
						o.postings[r.Name] = make(map[string][]relational.TupleID)
					}
					o.postings[r.Name][tok] = append(o.postings[r.Name][tok], id)
				}
			}
		}
		o.sets[r.Name] = sets
	}
	return o
}

// search answers query within rel: every live tuple holding all query
// tokens, ordered by score desc, then tuple asc. Scores beyond a vector's
// length read as 0.
func (o *oracle) search(rel, query string, scores relational.DBScores) []Match {
	kws := Tokenize(query)
	if len(kws) == 0 {
		return nil
	}
	s := scores[rel]
	var out []Match
	for ti, set := range o.sets[rel] {
		hit := set != nil
		for _, kw := range kws {
			hit = hit && set[kw]
		}
		if !hit {
			continue
		}
		m := Match{Relation: rel, Tuple: relational.TupleID(ti)}
		if ti < len(s) {
			m.Score = s[ti]
		}
		out = append(out, m)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Score != out[b].Score {
			return out[a].Score > out[b].Score
		}
		return out[a].Tuple < out[b].Tuple
	})
	return out
}

// corpus returns every (relation, token) pair the database holds, sorted
// for reproducible iteration.
func (o *oracle) corpus() [][2]string {
	var out [][2]string
	for rel, tokens := range o.postings {
		for tok := range tokens {
			out = append(out, [2]string{rel, tok})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a][0] != out[b][0] {
			return out[a][0] < out[b][0]
		}
		return out[a][1] < out[b][1]
	})
	return out
}

// drain materializes a stream; nil when it holds nothing.
func drain(s *MatchStream) []Match {
	var out []Match
	for {
		m, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, m)
	}
}

// lookup returns, ascending, the tuples of rel holding every token of
// query: with no scores every match ties at 0, so the stream yields them in
// tuple order.
func lookup(idx *Sharded, rel, query string) []relational.TupleID {
	var out []relational.TupleID
	for _, m := range drain(idx.SearchStream(rel, query, nil)) {
		out = append(out, m.Tuple)
	}
	return out
}

// postingsOf flattens the index's shards to rel -> token -> postings,
// dropping empty lists and empty relation maps, so physically different
// layouts (and maps that emptied out incrementally) compare bit-for-bit at
// the level queries observe.
func postingsOf(t *testing.T, idx *Sharded) map[string]map[string][]relational.TupleID {
	t.Helper()
	out := make(map[string]map[string][]relational.TupleID)
	for _, shard := range idx.shards {
		for rel, tokens := range shard {
			for tok, ids := range tokens {
				if len(ids) == 0 {
					continue
				}
				m := out[rel]
				if m == nil {
					m = make(map[string][]relational.TupleID)
					out[rel] = m
				}
				if _, dup := m[tok]; dup {
					t.Fatalf("token %q of %s appears in two shards", tok, rel)
				}
				m[tok] = append([]relational.TupleID(nil), ids...)
			}
		}
	}
	return out
}

// checkOracle requires idx to hold exactly the oracle's posting lists and
// to answer a spread of the corpus's single-token queries, adjacent AND
// pairs, a miss and an empty query exactly like the oracle.
func checkOracle(t *testing.T, label string, idx *Sharded, o *oracle, scores relational.DBScores) {
	t.Helper()
	if got := postingsOf(t, idx); !reflect.DeepEqual(got, o.postings) {
		t.Fatalf("%s: postings differ from the oracle's", label)
	}
	pairs := o.corpus()
	if len(pairs) == 0 {
		t.Fatalf("%s: empty corpus", label)
	}
	check := func(rel, q string) {
		t.Helper()
		if got, want := drain(idx.SearchStream(rel, q, scores)), o.search(rel, q, scores); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: SearchStream(%s, %q) = %v, oracle %v", label, rel, q, got, want)
		}
	}
	for i := 0; i < len(pairs); i += 1 + len(pairs)/256 {
		check(pairs[i][0], pairs[i][1])
		if i > 0 && pairs[i-1][0] == pairs[i][0] {
			check(pairs[i][0], pairs[i-1][1]+" "+pairs[i][1])
		}
	}
	// AND pairs guaranteed to hit: two tokens of one live tuple.
	for rel, sets := range o.sets {
		for ti := 0; ti < len(sets); ti += 1 + len(sets)/64 {
			var toks []string
			for tok := range sets[ti] {
				toks = append(toks, tok)
			}
			if len(toks) >= 2 {
				sort.Strings(toks)
				check(rel, toks[0]+" "+toks[len(toks)-1])
			}
		}
	}
	check(pairs[0][0], "zzz-no-such-token-zzz")
	check(pairs[0][0], "")
	check("NoSuchRelation", pairs[0][1])
}
