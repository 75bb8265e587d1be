// RefBanker is the per-cell reference implementation of the Banker's
// algorithm: boolean claim rows and the original triple-loop safety scan,
// reading allocation state only through the graph's per-cell API.  It shares
// no claim storage or scanning code with the word-parallel Banker, so the
// fuzz campaign can replay every seed's traffic through both and flag any
// grant/refuse divergence.

package daa

import (
	"fmt"
	"slices"

	"deltartos/internal/rag"
)

// RefBanker mirrors Banker's public behavior with per-cell internals.
type RefBanker struct {
	m, n      int
	claims    [][]bool // claims[p][q]: p may ever need q
	claimList [][]int  // claimList[p]: the q with claims[p][q], ascending
	g         *rag.Graph
	Refusals  int

	// Scan scratch, sized at construction so Request never allocates.
	holder    []int  // holder[q]: the per-scan Holder snapshot
	heldStart []int  // held[heldStart[p]:heldStart[p+1]]: what p holds
	held      []int  // snapshot holdings grouped by process, ascending q
	free      []bool // free[q]: q is unheld or its holder has retired
	done      []bool // done[p]: p has retired in this scan
}

// NewRefBanker creates the per-cell oracle.
func NewRefBanker(procs, resources int) (*RefBanker, error) {
	if procs <= 0 || resources <= 0 {
		return nil, fmt.Errorf("daa: invalid banker size %d x %d", procs, resources)
	}
	b := &RefBanker{
		m:         resources,
		n:         procs,
		g:         rag.NewGraph(resources, procs),
		claims:    make([][]bool, procs),
		claimList: make([][]int, procs),
		holder:    make([]int, resources),
		heldStart: make([]int, procs+1),
		held:      make([]int, resources),
		free:      make([]bool, resources),
		done:      make([]bool, procs),
	}
	cells := make([]bool, procs*resources)
	for p := range b.claims {
		b.claims[p] = cells[p*resources : (p+1)*resources : (p+1)*resources]
	}
	return b, nil
}

// DeclareClaim registers that process p may ever need resource q.
// Repeated and out-of-order claims are fine: the claim list stays the
// ascending set of claimed resources.
func (b *RefBanker) DeclareClaim(p int, resources ...int) error {
	if p < 0 || p >= b.n {
		return fmt.Errorf("daa: process %d out of range", p)
	}
	b.claimList[p] = slices.Grow(b.claimList[p], len(resources))
	for _, q := range resources {
		if q < 0 || q >= b.m {
			return fmt.Errorf("daa: resource %d out of range", q)
		}
		if b.claims[p][q] {
			continue
		}
		b.claims[p][q] = true
		i, _ := slices.BinarySearch(b.claimList[p], q)
		b.claimList[p] = slices.Insert(b.claimList[p], i, q)
	}
	return nil
}

// Graph exposes the tracked allocation state.
func (b *RefBanker) Graph() *rag.Graph { return b.g }

// Request grants q to p under the same rules as Banker.Request, deciding
// safety with the per-cell scan.
func (b *RefBanker) Request(p, q int) (granted bool, err error) {
	if p < 0 || p >= b.n || q < 0 || q >= b.m {
		return false, fmt.Errorf("daa: request (%d,%d) out of range", p, q)
	}
	if !b.claims[p][q] {
		return false, fmt.Errorf("daa: p%d requests unclaimed q%d", p+1, q+1)
	}
	if b.g.Holder(q) != -1 {
		return false, nil
	}
	if err := b.g.SetGrant(q, p); err != nil {
		return false, err
	}
	if b.safe() {
		return true, nil
	}
	if err := b.g.Release(q, p); err != nil {
		return false, err
	}
	b.Refusals++
	return false, nil
}

// Release frees q held by p.
func (b *RefBanker) Release(p, q int) error {
	if p < 0 || p >= b.n || q < 0 || q >= b.m {
		return fmt.Errorf("daa: release (%d,%d) out of range", p, q)
	}
	return b.g.Release(q, p)
}

// safe is the Work/Finish retire loop of the Banker's algorithm.  It reads
// the allocation state once per scan — one Holder probe per resource into
// a snapshot — and groups the snapshot into per-process held lists.  Each
// pass then tests a process's claim list against the free set (a claimed
// resource blocks p unless it is free or p holds it) and retires a process
// by freeing its held list: O(m + n²·c) for claim lists of length ≤ c.
func (b *RefBanker) safe() bool {
	for p := range b.heldStart {
		b.heldStart[p] = 0
	}
	for q := 0; q < b.m; q++ {
		h := b.g.Holder(q)
		b.holder[q] = h
		b.free[q] = h == -1
		if h != -1 {
			b.heldStart[h]++
		}
	}
	// Counting sort of the snapshot by holder: prefix sums leave
	// heldStart[p] at the end of p's group, and filling each group from its
	// end (descending q) walks heldStart[p] back to the group's start.
	for p := 1; p <= b.n; p++ {
		b.heldStart[p] += b.heldStart[p-1]
	}
	for q := b.m - 1; q >= 0; q-- {
		if h := b.holder[q]; h != -1 {
			b.heldStart[h]--
			b.held[b.heldStart[h]] = q
		}
	}
	for p := range b.done {
		b.done[p] = false
	}
	for retired := 0; retired < b.n; {
		progress := false
		for p := 0; p < b.n; p++ {
			if b.done[p] {
				continue
			}
			ok := true
			for _, q := range b.claimList[p] {
				if !b.free[q] && b.holder[q] != p {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			for _, q := range b.held[b.heldStart[p]:b.heldStart[p+1]] {
				b.free[q] = true
			}
			b.done[p] = true
			retired++
			progress = true
		}
		if !progress {
			return false
		}
	}
	return true
}
