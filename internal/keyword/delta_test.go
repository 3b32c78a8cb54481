package keyword

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"sizelos/internal/relational"
)

// referencedBy maps relation name -> relations owning an FK into it.
func referencedBy(db *relational.DB) map[string][]string {
	out := make(map[string][]string)
	for _, r := range db.Relations {
		for _, fk := range r.FKs {
			out[fk.Ref] = append(out[fk.Ref], r.Name)
		}
	}
	return out
}

// anyToken returns the lexicographically first token of one relation, or ""
// when the relation has no string content.
func anyToken(o *oracle, rel string) string {
	tokens := o.postings[rel]
	best := ""
	for tok := range tokens {
		if best == "" || tok < best {
			best = tok
		}
	}
	return best
}

// mutationBatch builds a deterministic, schema-valid batch against db:
// deletes from every unreferenced relation, one cascaded delete of a
// string-bearing referenced tuple (children first), and two inserts per
// relation whose string values mix an existing token (merges into a live
// posting list) with fresh ones (new posting lists).
func mutationBatch(t *testing.T, db *relational.DB, o *oracle, round int) relational.Batch {
	t.Helper()
	refs := referencedBy(db)
	var batch relational.Batch
	deleting := make(map[string]map[int64]bool)
	addDelete := func(rel string, pk int64) {
		if deleting[rel] == nil {
			deleting[rel] = make(map[int64]bool)
		}
		if deleting[rel][pk] {
			return
		}
		deleting[rel][pk] = true
		batch.Deletes = append(batch.Deletes, relational.DeleteOp{Rel: rel, PK: pk})
	}
	liveIDs := func(r *relational.Relation) []relational.TupleID {
		var out []relational.TupleID
		for i := 0; i < r.Len(); i++ {
			if !r.Deleted(relational.TupleID(i)) {
				out = append(out, relational.TupleID(i))
			}
		}
		return out
	}

	// One cascaded delete: a referenced relation with string content whose
	// referencers are all themselves unreferenced.
	for _, r := range db.Relations {
		if len(refs[r.Name]) == 0 || len(stringColumns(r)) == 0 {
			continue
		}
		ok := true
		for _, owner := range refs[r.Name] {
			if len(refs[owner]) > 0 {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		live := liveIDs(r)
		if len(live) == 0 {
			continue
		}
		victim := live[len(live)-1]
		pk := r.PK(victim)
		for _, ownerName := range refs[r.Name] {
			owner := db.Relation(ownerName)
			// An owner may hold several FKs into the victim's relation
			// (Cites has citing and cited): retract through every one.
			for j, fk := range owner.FKs {
				if fk.Ref != r.Name {
					continue
				}
				for _, child := range db.JoinChildren(owner, j, pk) {
					addDelete(ownerName, owner.PK(child))
				}
			}
		}
		addDelete(r.Name, pk)
		break
	}
	// Plain deletes from unreferenced relations.
	for _, r := range db.Relations {
		if len(refs[r.Name]) > 0 {
			continue
		}
		live := liveIDs(r)
		for i := 0; i < 2 && i < len(live); i++ {
			addDelete(r.Name, r.PK(live[i]))
		}
	}
	// Two inserts per relation, FK values copied from surviving tuples.
	for _, r := range db.Relations {
		var maxPK int64
		for _, id := range liveIDs(r) {
			if pk := r.PK(id); pk > maxPK {
				maxPK = pk
			}
		}
		for n := 0; n < 2; n++ {
			tuple := make(relational.Tuple, len(r.Columns))
			valid := true
			for ci, col := range r.Columns {
				switch {
				case ci == r.PKCol:
					tuple[ci] = relational.IntVal(maxPK + 1000*int64(round+1) + int64(n))
				case r.FKIndexOf(col.Name) >= 0:
					fk := r.FKs[r.FKIndexOf(col.Name)]
					ref := db.Relation(fk.Ref)
					src := int64(-1)
					for _, id := range liveIDs(ref) {
						pk := ref.PK(id)
						if !deleting[fk.Ref][pk] {
							src = pk
							break
						}
					}
					if src < 0 {
						valid = false
						break
					}
					tuple[ci] = relational.IntVal(src)
				case col.Kind == relational.KindString:
					tuple[ci] = relational.StrVal(fmt.Sprintf("%s zzmut%dr%dn%d", anyToken(o, r.Name), ci, round, n))
				case col.Kind == relational.KindFloat:
					tuple[ci] = relational.FloatVal(1.5)
				default:
					tuple[ci] = relational.IntVal(7)
				}
			}
			if valid {
				batch.Inserts = append(batch.Inserts, relational.InsertOp{Rel: r.Name, Tuple: tuple})
			}
		}
	}
	if len(batch.Deletes) < 3 || len(batch.Inserts) < 6 {
		t.Fatalf("degenerate batch: %d deletes, %d inserts", len(batch.Deletes), len(batch.Inserts))
	}
	return batch
}

// TestIncrementalEqualsRebuild mutates the DBLP and TPC-H fixtures in two
// rounds, then compacts every tombstoned relation, and requires after each
// step that the incrementally maintained index at 1/4/17 shards is
// bit-identical (same tokens, same exact posting lists) to a from-scratch
// rebuild over the mutated database and answers queries exactly like the
// brute-force oracle.
func TestIncrementalEqualsRebuild(t *testing.T) {
	for name, db := range equalityDBs(t) {
		t.Run(name, func(t *testing.T) {
			shardeds := make(map[int]*Sharded, len(equalityShardCounts))
			for _, n := range equalityShardCounts {
				shardeds[n] = BuildSharded(db, ShardedOptions{NumShards: n})
			}
			check := func(step string) {
				t.Helper()
				o := newOracle(db)
				scores := syntheticScores(db)
				for _, n := range equalityShardCounts {
					rebuilt := BuildSharded(db, ShardedOptions{NumShards: n})
					if !reflect.DeepEqual(postingsOf(t, shardeds[n]), postingsOf(t, rebuilt)) {
						t.Fatalf("%s: incremental sharded(%d) != rebuilt sharded(%d)", step, n, n)
					}
					checkOracle(t, fmt.Sprintf("%s: sharded(%d)", step, n), shardeds[n], o, scores)
				}
			}
			for round := 0; round < 2; round++ {
				batch := mutationBatch(t, db, newOracle(db), round)
				res, err := db.Apply(batch)
				if err != nil {
					t.Fatalf("round %d: Apply: %v", round, err)
				}
				rels := make([]string, 0, len(batch.Relations()))
				for rel := range batch.Relations() {
					rels = append(rels, rel)
				}
				sort.Strings(rels)
				for _, rel := range rels {
					for _, idx := range shardeds {
						idx.Apply(rel, res.Inserted[rel], res.Deleted[rel])
					}
				}
				check(fmt.Sprintf("round %d", round))
			}
			compacted := 0
			for _, r := range db.Relations {
				if r.Tombstones() == 0 {
					continue
				}
				remap := r.Compact()
				for _, idx := range shardeds {
					idx.Remap(r.Name, remap)
				}
				compacted++
			}
			if compacted == 0 {
				t.Fatal("mutation rounds left nothing to compact")
			}
			check("after compaction")
		})
	}
}

// TestApplyEmptiesToken retracts the only tuple carrying a token and checks
// the posting entry disappears, exactly as a rebuild would have it.
func TestApplyEmptiesToken(t *testing.T) {
	db := libraryDB(t)
	sharded := BuildSharded(db, ShardedOptions{NumShards: 4})
	// "classic" occurs only in Book pk 2.
	if _, err := db.Apply(relational.Batch{Deletes: []relational.DeleteOp{{Rel: "Book", PK: 2}}}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	sharded.Apply("Book", nil, []relational.TupleID{1})
	if got := lookup(sharded, "Book", "classic"); got != nil {
		t.Fatalf("deleted token still resolves: %v", got)
	}
	if got := lookup(sharded, "Book", "graph"); !reflect.DeepEqual(got, []relational.TupleID{0}) {
		t.Fatalf("surviving token wrong: %v", got)
	}
	if _, ok := sharded.shards[shardOf("classic", 4)]["Book"]["classic"]; ok {
		t.Fatal("Apply kept an empty posting entry")
	}
}
