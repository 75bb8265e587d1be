// Static derivation: the same facts deltalint's lockorder and claims
// passes infer from Go source, computed directly from a generated
// scenario's task programs.  The derivation is deliberately independent of
// both the executor and the source-level passes, so the three can
// cross-check each other (lint.go round-trips sampled scenarios through
// the real passes and compares against this).

package fuzz

import (
	"math/bits"
	"slices"
)

// Static is the scenario's compile-time view.
type Static struct {
	// order is the lock-order relation as a bit matrix, one ⌈m/64⌉-word
	// row per resource: bit b of row a records the edge a→b, some task
	// acquires b while holding a.
	order []uint64
	// claims[t] is task t's maximal claim set: every resource its program
	// may acquire, ascending (crash points do not shrink it — static
	// analysis over-approximates).
	claims [][]int
	// hasCycle reports a cycle in the lock-order graph — the static
	// deadlock prediction.  The standing fuzz invariant is runtime
	// deadlock ⇒ hasCycle (static ⊇ runtime).
	hasCycle bool
}

// Derive computes the static view of a scenario.
func Derive(sc *Scenario) *Static {
	m := sc.Cfg.Resources
	words := (m + 63) / 64
	st := &Static{order: make([]uint64, m*words), claims: make([][]int, len(sc.Progs))}
	held := make([]bool, m)
	touched := make([]bool, m)
	var heldList []int // the resources held at this point, in acquire order
	for t, prog := range sc.Progs {
		heldList = heldList[:0]
		// The static walk follows the program linearly — exactly the
		// held-set dataflow the lockorder pass runs over task closures.
		for _, op := range prog.Ops {
			if op.Acquire {
				for _, a := range heldList {
					st.order[a*words+op.Res/64] |= 1 << (op.Res % 64)
				}
				if !held[op.Res] {
					held[op.Res] = true
					heldList = append(heldList, op.Res)
				}
				if !touched[op.Res] {
					touched[op.Res] = true
					st.claims[t] = append(st.claims[t], op.Res)
				}
			} else if held[op.Res] {
				held[op.Res] = false
				i := slices.Index(heldList, op.Res)
				heldList = slices.Delete(heldList, i, i+1)
			}
		}
		for _, r := range heldList {
			held[r] = false
		}
		for _, r := range st.claims[t] {
			touched[r] = false
		}
		slices.Sort(st.claims[t])
	}
	st.hasCycle = orderCycle(st.order, m, words)
	return st
}

// HasCycle reports whether the lock-order graph predicts a deadlock.
func (st *Static) HasCycle() bool { return st.hasCycle }

// Claims returns task t's maximal claim set, ascending.
func (st *Static) Claims(t int) []int { return st.claims[t] }

// Edges counts the lock-order edges.
func (st *Static) Edges() int {
	n := 0
	for _, w := range st.order {
		n += bits.OnesCount64(w)
	}
	return n
}

// nextEdge returns the smallest b >= from with bit b set in row, or -1.
func nextEdge(row []uint64, from int) int {
	for i := from / 64; i < len(row); i++ {
		w := row[i]
		if i == from/64 {
			w &= ^uint64(0) << (from % 64)
		}
		if w != 0 {
			return i*64 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// orderCycle is an iterative three-color DFS over the m-node lock-order
// bit matrix.
func orderCycle(order []uint64, m, words int) bool {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]uint8, m)
	type frame struct{ v, next int }
	var stack []frame
	for start := 0; start < m; start++ {
		if color[start] != white {
			continue
		}
		stack = append(stack[:0], frame{start, 0})
		color[start] = gray
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			row := order[f.v*words : (f.v+1)*words]
			advanced := false
			for w := nextEdge(row, f.next); w >= 0; w = nextEdge(row, w+1) {
				f.next = w + 1
				switch color[w] {
				case gray:
					return true
				case white:
					color[w] = gray
					stack = append(stack, frame{w, 0})
				default: // black: already explored
					continue
				}
				advanced = true
				break
			}
			if !advanced {
				color[f.v] = black
				stack = stack[:len(stack)-1]
			}
		}
	}
	return false
}
