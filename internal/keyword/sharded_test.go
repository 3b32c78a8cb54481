package keyword

import (
	"fmt"
	"reflect"
	"testing"

	"sizelos/internal/datagen"
	"sizelos/internal/relational"
)

// equalityShardCounts are the partition counts the index is verified
// under: degenerate (1), typical (4), and a prime that misaligns with every
// power-of-two hash pattern (17).
var equalityShardCounts = []int{1, 4, 17}

func equalityDBs(t *testing.T) map[string]*relational.DB {
	t.Helper()
	dcfg := datagen.DefaultDBLPConfig()
	dcfg.Authors = 150
	dcfg.Papers = 600
	dblp, err := datagen.GenerateDBLP(dcfg)
	if err != nil {
		t.Fatalf("GenerateDBLP: %v", err)
	}
	tcfg := datagen.DefaultTPCHConfig()
	tcfg.ScaleFactor = 0.002
	tpch, err := datagen.GenerateTPCH(tcfg)
	if err != nil {
		t.Fatalf("GenerateTPCH: %v", err)
	}
	return map[string]*relational.DB{"dblp": dblp, "tpch": tpch}
}

// syntheticScores fabricates a deterministic, collision-rich score table so
// ranking is tested without running the rank engine: many tuples share a
// score (exercising tie-breaks), the rest spread out.
func syntheticScores(db *relational.DB) relational.DBScores {
	scores := make(relational.DBScores, len(db.Relations))
	for _, rel := range db.Relations {
		s := make(relational.Scores, rel.Len())
		for i := range s {
			s[i] = float64((uint32(i) * 2654435761) % 97)
		}
		scores[rel.Name] = s
	}
	return scores
}

// TestShardedEqualsFlat builds the index at shard counts {1, 4, 17} on the
// DBLP and TPC-H fixtures, with one tokenizer worker and with a pool, and
// requires each to match the brute-force oracle — same posting lists, same
// ranked answers — so the flat (one-shard, one-worker) layout and every
// partitioned one are interchangeable.
func TestShardedEqualsFlat(t *testing.T) {
	for name, db := range equalityDBs(t) {
		t.Run(name, func(t *testing.T) {
			o := newOracle(db)
			scores := syntheticScores(db)
			for _, numShards := range equalityShardCounts {
				t.Run(fmt.Sprintf("shards=%d", numShards), func(t *testing.T) {
					for _, workers := range []int{1, 3} {
						sharded := BuildSharded(db, ShardedOptions{NumShards: numShards, Workers: workers})
						if got := sharded.NumShards(); got != numShards {
							t.Fatalf("NumShards = %d, want %d", got, numShards)
						}
						checkOracle(t, fmt.Sprintf("%s/shards=%d/workers=%d", name, numShards, workers), sharded, o, scores)
					}
				})
			}
		})
	}
}

// TestShardedDefaultOptions covers the zero-value construction path the
// engine uses.
func TestShardedDefaultOptions(t *testing.T) {
	db := libraryDB(t)
	idx := BuildSharded(db, ShardedOptions{})
	if idx.NumShards() < 1 {
		t.Fatalf("NumShards = %d", idx.NumShards())
	}
	want := []relational.TupleID{0, 1}
	if got := lookup(idx, "Author", "faloutsos"); !reflect.DeepEqual(got, want) {
		t.Fatalf("lookup = %v, want %v", got, want)
	}
}

// TestBuildShardedNothingToIndex builds over databases that hold no
// tokenizable content — no relations, relations with no tuples, and tuples
// only in relations without a string column — at one worker and a pool, one
// shard and several, and requires every lookup to match nothing.
func TestBuildShardedNothingToIndex(t *testing.T) {
	ids := relational.MustNewRelation("Ids",
		[]relational.Column{{Name: "id", Kind: relational.KindInt}}, "id", nil)
	ids.MustInsert(relational.Tuple{relational.IntVal(7)})
	withTuples := relational.NewDB("ints")
	withTuples.MustAddRelation(ids)
	schemaOnly := relational.NewDB("schema")
	schemaOnly.MustAddRelation(relational.MustNewRelation("Author",
		[]relational.Column{
			{Name: "id", Kind: relational.KindInt},
			{Name: "name", Kind: relational.KindString},
		}, "id", nil))
	dbs := map[string]*relational.DB{
		"empty":          relational.NewDB("empty"),
		"schema-only":    schemaOnly,
		"no-string-cols": withTuples,
	}
	for name, db := range dbs {
		for _, numShards := range []int{1, 4} {
			for _, workers := range []int{1, 3} {
				idx := BuildSharded(db, ShardedOptions{NumShards: numShards, Workers: workers})
				if p := postingsOf(t, idx); len(p) != 0 {
					t.Fatalf("%s shards=%d workers=%d: postings %v, want none", name, numShards, workers, p)
				}
				for _, rel := range []string{"Author", "Ids", "Nope"} {
					if got := lookup(idx, rel, "7 faloutsos"); got != nil {
						t.Fatalf("%s shards=%d workers=%d: lookup(%s) = %v, want nothing", name, numShards, workers, rel, got)
					}
					if got := lookup(idx, rel, "faloutsos"); got != nil {
						t.Fatalf("%s shards=%d workers=%d: lookup(%s) = %v, want nothing", name, numShards, workers, rel, got)
					}
				}
			}
		}
	}
}
