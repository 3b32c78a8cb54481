// Package rank computes global tuple-importance scores over the data graph.
// It implements the two scoring schemes the paper uses (§2.2, §6):
//
//   - ObjectRank (Balmin et al., VLDB 2004): PageRank generalized with an
//     Authority Transfer Schema Graph G_A that assigns an authority transfer
//     rate to each schema edge and direction. Used for DBLP.
//   - ValueRank (Fakas & Cai, DBRank 2009): ObjectRank extended so that the
//     authority a tuple passes along an edge is distributed proportionally
//     to the values of the receiving tuples (e.g. a $100 order receives more
//     of its customer's authority than a $10 one). Used for TPC-H.
//
// Plain PageRank is also provided as a baseline, compiled onto the same
// pull structure (CompilePageRank). The size-l algorithms are orthogonal to
// the scheme (§2.2 note); they only consume the resulting per-tuple scores.
//
// Authority flows are declared on the *conceptual* schema graph, where an
// M:N relationship (Paper—Author through the Writes junction) is a single
// edge. A junction flow pushes authority through the junction rows to the
// far side in one step, so junction tuples neither hold nor echo authority
// for that flow — matching how G_A figures like the paper's Figure 13 are
// drawn.
//
// Execution model: Compile resolves a G_A against one data graph into
// *Plans — per-flow CSR push plans, one contiguous score arena, and a
// per-destination pull transpose. Plans.Run is the power iteration (cold or
// warm); Plans.Apply splices a committed mutation batch into the compiled
// rows; Plans.RunResidual repairs the prior fixed point with a localized
// Gauss–Southwell residual push (see residual.go for the math).
//
// Every kernel here is single-threaded. Global importance is offline
// precomputation (§2.2), and the engine already runs one Run or
// RunResidual per setting concurrently over the shared *Plans, so worker
// pools inside a run would only oversubscribe the cores; measured, they
// lost to the serial kernels (docs/MAINTENANCE.md §6).
//
// # Invariants
//
//   - Options.Warm — and the prior RunResidual repairs — must be RAW
//     scores (NormalizeMax == 0 output). Normalize's presentation rescale
//     moves a vector far from the fixed point; feeding it back as a warm
//     start squanders the head start, and feeding it to RunResidual breaks
//     the residual-seeding identity outright. Callers keep two tables.
//   - Plans.Run is bit-for-bit deterministic: each destination's
//     contributions are summed in the canonical order (plan ordinal,
//     source ascending, target position), and RunResidual's push rounds
//     apply contributions in source-ascending order at values frozen at
//     round start. Reordering either sum changes score bits.
//   - Plans.Apply requires the batch to be already applied to the plans'
//     database AND data graph (it recomputes changed rows from both), and
//     must be serialized against Run/RunResidual by the caller. The engine
//     does all three under its write lock, in that order.
//   - A Pending pairs the prior scores with the FIRST pre-mutation row of
//     every changed source; it is invalidated by anything that remaps
//     TupleIDs (physical compaction). After a remap the caller must drop
//     the Pending, recompile, and take one warm full re-rank before
//     resuming residual repairs.
//   - Run and RunResidual stop on the same criterion — max per-node
//     residual below Options.Epsilon (the full iteration's per-node delta
//     IS its residual) — so both land in the same fixed-point tolerance
//     class, which is what lets the engine serve either result
//     interchangeably.
package rank
