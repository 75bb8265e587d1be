// Package pdda implements the Parallel Deadlock Detection Algorithm of Lee &
// Mooney (Section 4.2.1): Algorithm 1 (the terminal reduction sequence ξ) and
// Algorithm 2 (PDDA itself), together with the classic software deadlock
// detectors the paper cites as prior work (Holt, Shoshani–Coffman, Leibfried,
// Kim–Koh), which serve as baselines.
//
// All detectors are instrumented: Stats counts the abstract memory operations
// the software implementation performs, which the MPSoC simulator converts to
// bus-clock cycles via its cost table.  This is how the "PDDA in software"
// column of Table 5 is reproduced.
//
// Two engines implement the reduction.  The word-parallel engine (this file)
// sweeps whole []uint64 word groups per step — terminal rows via packed row
// summaries, terminal columns via one XOR of the column BWO planes, column
// clearing via one AND-NOT sweep per row — and, through Scratch/DetectInto,
// performs zero allocations per detection scan.  It is also the DDU's
// reduction: ddu.Unit.Detect runs DetectInto on a scratch the unit owns and
// converts the step count k into hardware steps.  The per-cell engine
// (cells.go) walks the matrix one Get/Set at a time and serves as the
// differential oracle and benchmark baseline.  Stats counts the ABSTRACT
// cell operations of the paper's software model in both engines (counted,
// not performed), so packing words never changes the simulated cost — only
// the host wall clock.
package pdda

import (
	"math/bits"

	"deltartos/internal/rag"
)

// Stats counts the work a software detector performed.  CellReads/CellWrites
// are shared-memory accesses to the state matrix; Ops are register-level ALU
// operations that do not touch memory.
type Stats struct {
	Iterations int // terminal reduction steps k (PDDA) or outer passes (baselines)
	CellReads  int
	CellWrites int
	Ops        int
}

// Add accumulates s2 into s.
func (s *Stats) Add(s2 Stats) {
	s.Iterations += s2.Iterations
	s.CellReads += s2.CellReads
	s.CellWrites += s2.CellWrites
	s.Ops += s2.Ops
}

// StepTrace records one terminal reduction step for diagnostics and for the
// paper's worked example (Figure 12).
type StepTrace struct {
	TerminalRows []int
	TerminalCols []int
	After        *rag.Matrix
}

// Scratch owns the reusable buffers of the allocation-free detection path: a
// working state matrix plus the packed column-summary and terminal-set
// buffers one reduction needs.  A Scratch resizes itself lazily to the
// largest system it has seen; reusing one across scans of the same system
// performs zero allocations per scan (gated by TestDetectDoesNotAllocate).
// A Scratch is owned by its caller and must not be shared across goroutines.
type Scratch struct {
	work     *rag.Matrix
	colReq   []uint64
	colGrant []uint64
	colTerm  []uint64
	termRows []int
}

// ensure sizes the scratch for an m×n system.
func (sc *Scratch) ensure(m, n int) {
	if sc.work != nil && sc.work.M == m && sc.work.N == n {
		return
	}
	sc.work = rag.NewMatrix(m, n)
	w := sc.work.Words()
	sc.colReq = make([]uint64, w)
	sc.colGrant = make([]uint64, w)
	sc.colTerm = make([]uint64, w)
	sc.termRows = make([]int, 0, m)
}

// Reduce applies the terminal reduction sequence ξ (Algorithm 1) to mx in
// place and returns the number of reduction steps k plus instrumentation.
//
// Each step computes ALL terminal rows and columns of the current matrix
// (Definitions 7–10) and removes every terminal edge simultaneously
// (Definition 12), exactly as the hardware does in parallel.
func Reduce(mx *rag.Matrix) (k int, stats Stats) {
	var sc Scratch
	sc.ensure(mx.M, mx.N)
	k, stats, _ = reduce(mx, &sc, false)
	return k, stats
}

// ReduceTraced is Reduce but also returns the per-step trace.
func ReduceTraced(mx *rag.Matrix) (k int, stats Stats, trace []StepTrace) {
	var sc Scratch
	sc.ensure(mx.M, mx.N)
	return reduce(mx, &sc, true)
}

// ReduceInto copies mx into the scratch working matrix and reduces THAT,
// leaving mx untouched — the no-Clone() flavor of Reduce.  The reduced
// matrix stays in the scratch for inspection until the next call.
func ReduceInto(sc *Scratch, mx *rag.Matrix) (k int, stats Stats) {
	sc.ensure(mx.M, mx.N)
	sc.work.CopyFrom(mx)
	k, stats, _ = reduce(sc.work, sc, false)
	return k, stats
}

// reduce is the word-parallel terminal reduction core.  Stats mirrors the
// abstract per-cell software model exactly: a row scan reads N cells, the
// column scan reads M·N cells, each cleared row writes N cells and each
// cleared column M cells — counted, not performed, so the cost model is
// independent of the engine (pinned against the per-cell engine by
// TestStatsMatchCellModel).
func reduce(mx *rag.Matrix, sc *Scratch, traced bool) (int, Stats, []StepTrace) {
	var stats Stats
	var trace []StepTrace
	words := mx.Words()
	k := 0
	for {
		// Lines 5–6 of Algorithm 1: compute T_r and T_c.  The software
		// implementation scans every cell once per direction.
		termRows := sc.termRows[:0]
		for s := 0; s < mx.M; s++ {
			anyReq, anyGrant := mx.RowSummary(s)
			stats.CellReads += mx.N // row scan
			stats.Ops += 2
			if anyReq != anyGrant { // τ_rs = α^r ⊕ α^g (Equation 4)
				termRows = append(termRows, s)
			}
		}
		mx.ColumnSummariesInto(sc.colReq, sc.colGrant)
		stats.CellReads += mx.M * mx.N // column scan
		stats.Ops += 2 * mx.N          // τ_ct per column (Equation 4)
		termColCount := 0
		for w := 0; w < words; w++ {
			sc.colTerm[w] = sc.colReq[w] ^ sc.colGrant[w]
			termColCount += bits.OnesCount64(sc.colTerm[w])
		}
		// Line 7: if no more terminals, stop (T_iter == 0, Equation 5).
		if len(termRows) == 0 && termColCount == 0 {
			break
		}
		// Lines 8–9: remove all terminal edges found this iteration.
		for _, s := range termRows {
			mx.ClearRow(s)
			stats.CellWrites += mx.N
		}
		if termColCount > 0 {
			mx.ClearColumns(sc.colTerm)
			stats.CellWrites += mx.M * termColCount
		}
		k++
		stats.Iterations = k
		if traced {
			termCols := make([]int, 0, termColCount)
			for w := 0; w < words; w++ {
				word := sc.colTerm[w]
				for word != 0 {
					termCols = append(termCols, w*64+bits.TrailingZeros64(word))
					word &= word - 1
				}
			}
			trace = append(trace, StepTrace{
				TerminalRows: append([]int(nil), termRows...),
				TerminalCols: termCols,
				After:        mx.Clone(),
			})
		}
	}
	sc.termRows = sc.termRows[:0]
	return k, stats, trace
}

// Detect is Algorithm 2 (PDDA): it builds a working copy of the state matrix,
// runs the terminal reduction sequence, and reports deadlock iff the
// irreducible matrix is non-empty.
func Detect(mx *rag.Matrix) (deadlock bool, stats Stats) {
	var sc Scratch
	return DetectInto(&sc, mx)
}

// DetectInto is Detect on a caller-owned Scratch: the state matrix is copied
// into the scratch working matrix (no Clone per scan) and reduced there.
// Zero allocations once the scratch is warm; Stats is identical to Detect's.
func DetectInto(sc *Scratch, mx *rag.Matrix) (deadlock bool, stats Stats) {
	sc.ensure(mx.M, mx.N)
	sc.work.CopyFrom(mx)
	stats.CellWrites += mx.M * mx.N // lines 2–6: construct M_ij
	_, rs, _ := reduce(sc.work, sc, false)
	stats.Add(rs)
	deadlock = !sc.work.Empty()
	stats.CellReads += mx.M * mx.N // lines 8–12: test M_{i,j+k} == [0]
	return deadlock, stats
}

// DetectGraph runs PDDA on a Graph by first mapping it to its state matrix
// (Definition 6), as lines 2–6 of Algorithm 2 specify.
func DetectGraph(g *rag.Graph) (bool, Stats) {
	return Detect(g.Matrix())
}

// DetectGraphInto is DetectGraph on a caller-owned Scratch: the graph is
// mapped straight into the scratch matrix (word copies of the packed request
// rows) and reduced in place — the steady-state detection path of the fuzz
// executor and the avoidance arbiters, zero allocations per scan.
func DetectGraphInto(sc *Scratch, g *rag.Graph) (deadlock bool, stats Stats) {
	m, n := g.Size()
	sc.ensure(m, n)
	g.MatrixInto(sc.work)
	stats.CellWrites += m * n // lines 2–6: construct M_ij
	_, rs, _ := reduce(sc.work, sc, false)
	stats.Add(rs)
	deadlock = !sc.work.Empty()
	stats.CellReads += m * n // lines 8–12: test M_{i,j+k} == [0]
	return deadlock, stats
}

// ConnectDecision evaluates the hardware decide condition of Equations 6–7 on
// an irreducible matrix: D = OR over rows and columns of φ = α^r ∧ α^g.
// PDDA's deadlock answer (matrix non-empty) and the connect-node decision
// agree on every irreducible matrix; the property test pins that equivalence.
func ConnectDecision(mx *rag.Matrix) bool {
	for s := 0; s < mx.M; s++ {
		anyReq, anyGrant := mx.RowSummary(s)
		if anyReq && anyGrant {
			return true
		}
	}
	colReq, colGrant := mx.ColumnSummaries()
	for w := 0; w < mx.Words(); w++ {
		if colReq[w]&colGrant[w] != 0 {
			return true
		}
	}
	return false
}

// WorstCaseBound returns the proven upper bound on the number of terminal
// reduction steps for an m×n system: 2·min(m,n) − 3, from GIT-CC-03-41
// (values below 1 clamp to 1, a single step always suffices for degenerate
// sizes).
func WorstCaseBound(m, n int) int {
	k := m
	if n < k {
		k = n
	}
	b := 2*k - 3
	if b < 1 {
		return 1
	}
	return b
}
