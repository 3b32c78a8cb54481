package ostree_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"sizelos"
	"sizelos/internal/datagen"
	"sizelos/internal/ostree"
	"sizelos/internal/relational"
	"sizelos/internal/sizel"
)

// oracleRender is the straightforward renderer the append-based Render
// replaced (map keep set, fmt/strings formatting, sort.SliceStable on a
// fresh child slice per node). Render must reproduce it byte for byte.
func oracleRender(t *ostree.Tree, opts ostree.RenderOptions) string {
	var keep map[ostree.NodeID]bool
	if opts.Keep != nil {
		keep = make(map[ostree.NodeID]bool, len(opts.Keep))
		for _, id := range opts.Keep {
			keep[id] = true
		}
		if !keep[t.Root()] {
			return ""
		}
	}
	var b strings.Builder
	oracleNode(t, &b, t.Root(), keep, opts)
	return b.String()
}

func oracleNode(t *ostree.Tree, b *strings.Builder, id ostree.NodeID, keep map[ostree.NodeID]bool, opts ostree.RenderOptions) {
	n := &t.Nodes[id]
	indent := strings.Repeat(".", int(n.Depth)*2)
	if n.Depth > 0 {
		indent += " "
	}
	fmt.Fprintf(b, "%s%s: %s", indent, n.GDS.Label, oracleDescribe(t, id, opts.AttrTheta))
	if opts.ShowWeights {
		fmt.Fprintf(b, "  [%.2f]", n.Weight)
	}
	b.WriteByte('\n')
	children := make([]ostree.NodeID, 0, len(n.Children))
	for _, c := range n.Children {
		if keep == nil || keep[c] {
			children = append(children, c)
		}
	}
	sort.SliceStable(children, func(a, b int) bool {
		ca, cb := &t.Nodes[children[a]], &t.Nodes[children[b]]
		if ca.GDS != cb.GDS {
			return false
		}
		return ca.Weight > cb.Weight
	})
	for _, c := range children {
		oracleNode(t, b, c, keep, opts)
	}
}

func oracleDescribe(t *ostree.Tree, id ostree.NodeID, attrTheta float64) string {
	n := &t.Nodes[id]
	rel := t.DB.Relations[n.Rel]
	tup := rel.Tuples[n.Tuple]
	var parts []string
	for ci, col := range rel.Columns {
		if ci == rel.PKCol || rel.FKIndexOf(col.Name) >= 0 {
			continue
		}
		if col.Affinity < attrTheta {
			continue
		}
		parts = append(parts, tup[ci].String())
	}
	if len(parts) == 0 {
		return fmt.Sprintf("#%d", rel.PK(n.Tuple))
	}
	return strings.Join(parts, ", ")
}

// oracleCase is one tree the oracle comparison renders.
type oracleCase struct {
	name string
	tree *ostree.Tree
}

// oracleTrees builds complete and prelim-l OSs of the highest-importance
// subjects of DBLP Authors/Papers and TPC-H Customers/Suppliers.
func oracleTrees(t *testing.T) []oracleCase {
	t.Helper()
	dcfg := datagen.DefaultDBLPConfig()
	dcfg.Authors, dcfg.Papers, dcfg.Conferences, dcfg.YearSpan = 100, 500, 8, 5
	dblp, err := sizelos.OpenDBLP(dcfg)
	if err != nil {
		t.Fatalf("OpenDBLP: %v", err)
	}
	tcfg := datagen.DefaultTPCHConfig()
	tcfg.ScaleFactor = 0.002
	tpch, err := sizelos.OpenTPCH(tcfg)
	if err != nil {
		t.Fatalf("OpenTPCH: %v", err)
	}
	var cases []oracleCase
	for _, sub := range []struct {
		eng *sizelos.Engine
		rel string
	}{{dblp, "Author"}, {dblp, "Paper"}, {tpch, "Customer"}, {tpch, "Supplier"}} {
		setting := sizelos.DefaultSetting
		sc, err := sub.eng.Scores(setting)
		if err != nil {
			t.Fatal(err)
		}
		gds, err := sub.eng.GDS(sub.rel, setting)
		if err != nil {
			t.Fatal(err)
		}
		src := ostree.NewGraphSource(sub.eng.Graph(), sc)
		for _, tuple := range topTuples(sub.eng.DB().Relation(sub.rel), sc[sub.rel], 4) {
			tree, err := ostree.Generate(src, gds, tuple, ostree.GenOptions{MaxDepth: 6})
			if err != nil {
				t.Fatalf("Generate %s %d: %v", sub.rel, tuple, err)
			}
			cases = append(cases, oracleCase{fmt.Sprintf("%s/%d/complete", sub.rel, tuple), tree})
			for _, l := range []int{5, 15, 40} {
				tree, _, err := sizel.PrelimL(src, gds, tuple, l, sizel.PrelimOptions{MaxDepth: l - 1})
				if err != nil {
					t.Fatalf("PrelimL %s %d: %v", sub.rel, tuple, err)
				}
				cases = append(cases, oracleCase{fmt.Sprintf("%s/%d/prelim-%d", sub.rel, tuple, l), tree})
			}
		}
	}
	return cases
}

// topTuples returns the n live tuples of rel with the highest scores.
func topTuples(rel *relational.Relation, scores relational.Scores, n int) []relational.TupleID {
	ids := make([]relational.TupleID, 0, rel.Len())
	for i := 0; i < rel.Len(); i++ {
		if !rel.Deleted(relational.TupleID(i)) {
			ids = append(ids, relational.TupleID(i))
		}
	}
	sort.SliceStable(ids, func(a, b int) bool { return scores[ids[a]] > scores[ids[b]] })
	return ids[:min(n, len(ids))]
}

// maxSameRoleChildren is the largest number of children of one node that
// share a G_DS role.
func maxSameRoleChildren(tree *ostree.Tree) int {
	best := 0
	for i := range tree.Nodes {
		count := map[any]int{}
		for _, c := range tree.Nodes[i].Children {
			count[tree.Nodes[c].GDS]++
			best = max(best, count[tree.Nodes[c].GDS])
		}
	}
	return best
}

// keepSets draws the Keep subsets one tree is rendered under: nil, empty,
// the whole tree, rootless, out-of-range ids mixed in, and random subsets
// with and without the root.
func keepSets(tree *ostree.Tree, r *rand.Rand) map[string][]ostree.NodeID {
	all := make([]ostree.NodeID, tree.Len())
	for i := range all {
		all[i] = ostree.NodeID(i)
	}
	sets := map[string][]ostree.NodeID{
		"nil":          nil,
		"empty":        {},
		"all":          all,
		"rootless":     all[1:],
		"out-of-range": append([]ostree.NodeID{-1, ostree.NodeID(tree.Len()), ostree.NodeID(tree.Len() + 7)}, all...),
	}
	for trial := 0; trial < 6; trial++ {
		var keep []ostree.NodeID
		if trial%3 != 2 {
			keep = append(keep, tree.Root())
		}
		for i := 1; i < tree.Len(); i++ {
			if r.Intn(trial+2) != 0 {
				keep = append(keep, ostree.NodeID(i))
			}
		}
		if trial%2 == 1 {
			keep = append(keep, ostree.NodeID(-5), ostree.NodeID(tree.Len()+r.Intn(10)))
		}
		r.Shuffle(len(keep), func(a, b int) { keep[a], keep[b] = keep[b], keep[a] })
		sets[fmt.Sprintf("random-%d", trial)] = keep
	}
	return sets
}

// TestRenderMatchesOracle pins the append-based renderer to the original
// one byte for byte over real OSs, every kind of Keep set, ShowWeights on
// and off and several θ′ values — including nodes with more than 20
// same-role children, where the stable sort leaves insertion sort for its
// symMerge phase.
func TestRenderMatchesOracle(t *testing.T) {
	cases := oracleTrees(t)
	r := rand.New(rand.NewSource(14))
	wide := 0
	renders := 0
	for _, c := range cases {
		if maxSameRoleChildren(c.tree) > 20 {
			wide++
		}
		for name, keep := range keepSets(c.tree, r) {
			for _, weights := range []bool{false, true} {
				for _, theta := range []float64{0, 0.5, 0.95} {
					opts := ostree.RenderOptions{Keep: keep, ShowWeights: weights, AttrTheta: theta}
					got, want := c.tree.Render(opts), oracleRender(c.tree, opts)
					renders++
					if got != want {
						t.Fatalf("%s keep=%s weights=%t θ′=%g: render diverged from oracle\ngot:\n%s\nwant:\n%s",
							c.name, name, weights, theta, got, want)
					}
				}
			}
		}
	}
	if wide == 0 {
		t.Fatalf("no tree has a node with more than 20 same-role children; the symMerge path is untested")
	}
	t.Logf("%d renders over %d trees (%d with >20 same-role children) matched the oracle", renders, len(cases), wide)
}

// BenchmarkRender times rendering one size-l OS: a top-path size-15
// selection of the best-ranked DBLP author's prelim-l OS.
func BenchmarkRender(b *testing.B) {
	dcfg := datagen.DefaultDBLPConfig()
	eng, err := sizelos.OpenDBLP(dcfg)
	if err != nil {
		b.Fatal(err)
	}
	sc, err := eng.Scores(sizelos.DefaultSetting)
	if err != nil {
		b.Fatal(err)
	}
	gds, err := eng.GDS("Author", sizelos.DefaultSetting)
	if err != nil {
		b.Fatal(err)
	}
	const l = 15
	root := topTuples(eng.DB().Relation("Author"), sc["Author"], 1)[0]
	tree, _, err := sizel.PrelimL(ostree.NewGraphSource(eng.Graph(), sc), gds, root, l, sizel.PrelimOptions{MaxDepth: l - 1})
	if err != nil {
		b.Fatal(err)
	}
	res, err := sizel.TopPath(tree, l, sizel.TopPathOptions{})
	if err != nil {
		b.Fatal(err)
	}
	opts := ostree.RenderOptions{Keep: res.Nodes}
	b.ReportAllocs()
	for b.Loop() {
		renderSink = tree.Render(opts)
	}
}

// renderSink keeps BenchmarkRender's result live.
var renderSink string
