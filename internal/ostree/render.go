package ostree

import (
	"slices"
	"strconv"
)

// RenderOptions controls OS rendering.
type RenderOptions struct {
	// AttrTheta is the attribute-affinity threshold θ′ (§2.1): columns with
	// affinity below it are not displayed. Key columns are never displayed.
	AttrTheta float64
	// Keep restricts rendering to a node subset (a size-l OS); nil renders
	// the whole tree. The subset must contain the root to render anything;
	// ids outside the tree are ignored.
	Keep []NodeID
	// ShowWeights appends each node's local importance, as in the paper's
	// Figure 3.
	ShowWeights bool
}

// renderBytesPerNode sizes the output buffer up front: a rendered line is
// an indent, a role label and a few short attribute values.
const renderBytesPerNode = 64

// renderer is the state of one Render call: the output buffer, the keep
// set as a bitmap over node ids, and one scratch stack that holds each
// rendered node's ordered children while its subtree is printed.
type renderer struct {
	t     *Tree
	opts  RenderOptions
	keep  []bool // nil renders every node
	buf   []byte
	stack []NodeID
}

// Render prints the OS in the indented style of the paper's Examples 4 and
// 5: one tuple per line, children indented under their parent, each line
// "Label: attr, attr, ...".
func (t *Tree) Render(opts RenderOptions) string {
	r := renderer{t: t, opts: opts}
	lines := len(t.Nodes)
	if opts.Keep != nil {
		r.keep = make([]bool, len(t.Nodes))
		for _, id := range opts.Keep {
			if id >= 0 && int(id) < len(r.keep) {
				r.keep[id] = true
			}
		}
		if len(r.keep) == 0 || !r.keep[t.Root()] {
			return ""
		}
		lines = min(len(opts.Keep), lines)
	}
	r.buf = make([]byte, 0, lines*renderBytesPerNode)
	r.node(t.Root())
	return string(r.buf)
}

func (r *renderer) node(id NodeID) {
	t := r.t
	n := &t.Nodes[id]
	for range n.Depth * 2 {
		r.buf = append(r.buf, '.')
	}
	if n.Depth > 0 {
		r.buf = append(r.buf, ' ')
	}
	r.buf = append(r.buf, n.GDS.Label...)
	r.buf = append(r.buf, ": "...)
	r.describe(n)
	if r.opts.ShowWeights {
		r.buf = append(r.buf, "  ["...)
		r.buf = strconv.AppendFloat(r.buf, n.Weight, 'f', 2, 64)
		r.buf = append(r.buf, ']')
	}
	r.buf = append(r.buf, '\n')
	// Children are rendered grouped by G_DS role, highest-weight first
	// within a role, which mirrors the paper's examples (papers first, then
	// details). Nodes of different roles never compare as ordered, so the
	// roles keep their generated grouping; the stable sort's exact
	// algorithm therefore fixes the output.
	base := len(r.stack)
	for _, c := range n.Children {
		if r.keep == nil || r.keep[c] {
			r.stack = append(r.stack, c)
		}
	}
	slices.SortStableFunc(r.stack[base:], func(a, b NodeID) int {
		ca, cb := &t.Nodes[a], &t.Nodes[b]
		if ca.GDS == cb.GDS && ca.Weight > cb.Weight {
			return -1
		}
		return 0
	})
	for i := base; i < len(r.stack); i++ {
		r.node(r.stack[i])
	}
	r.stack = r.stack[:base]
}

// describe appends the displayable attributes of a node's tuple: non-key
// columns whose attribute affinity passes θ′.
func (r *renderer) describe(n *Node) {
	rel := r.t.DB.Relations[n.Rel]
	tup := rel.Tuples[n.Tuple]
	parts := 0
	for ci, col := range rel.Columns {
		if ci == rel.PKCol || rel.FKIndexOf(col.Name) >= 0 {
			continue
		}
		if col.Affinity < r.opts.AttrTheta {
			continue
		}
		if parts > 0 {
			r.buf = append(r.buf, ", "...)
		}
		r.buf = tup[ci].Append(r.buf)
		parts++
	}
	if parts == 0 {
		// Fall back to the primary key so every tuple renders something.
		r.buf = append(r.buf, '#')
		r.buf = strconv.AppendInt(r.buf, rel.PK(n.Tuple), 10)
	}
}
