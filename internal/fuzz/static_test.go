package fuzz

import (
	"slices"
	"testing"
)

// naiveStatic is the full-m reference walk Derive is checked against: at
// every acquire it scans all m resources for the held ones, and it decides
// acyclicity by Kahn's algorithm (peel nodes of in-degree zero) rather than
// by DFS.
type naiveStatic struct {
	edges    int
	claims   [][]int
	hasCycle bool
}

func deriveNaive(sc *Scenario) naiveStatic {
	m := sc.Cfg.Resources
	order := make([][]bool, m)
	for a := range order {
		order[a] = make([]bool, m)
	}
	var out naiveStatic
	for _, prog := range sc.Progs {
		held := make([]bool, m)
		touched := make([]bool, m)
		for _, op := range prog.Ops {
			if op.Acquire {
				for a := 0; a < m; a++ {
					if held[a] {
						order[a][op.Res] = true
					}
				}
				held[op.Res] = true
				touched[op.Res] = true
			} else {
				held[op.Res] = false
			}
		}
		var claims []int
		for r := 0; r < m; r++ {
			if touched[r] {
				claims = append(claims, r)
			}
		}
		out.claims = append(out.claims, claims)
	}
	indeg := make([]int, m)
	for a := range order {
		for b, e := range order[a] {
			if e {
				out.edges++
				indeg[b]++
			}
		}
	}
	var ready []int
	for v, d := range indeg {
		if d == 0 {
			ready = append(ready, v)
		}
	}
	peeled := 0
	for len(ready) > 0 {
		v := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		peeled++
		for b, e := range order[v] {
			if e {
				if indeg[b]--; indeg[b] == 0 {
					ready = append(ready, b)
				}
			}
		}
	}
	out.hasCycle = peeled < m
	return out
}

// Derive's held-list walk must compute exactly what the full-m walk does —
// edge count, every task's claim set, the cycle verdict — on 1k generated
// seeds spread over all eight points of the default sweep, word-boundary
// resource counts (64, 128, 256) included.
func TestDeriveMatchesNaiveWalk(t *testing.T) {
	sw := DefaultSweep(125, 1)
	cycles := 0
	for p, pt := range sw.Points {
		for k := 0; k < sw.Seeds; k++ {
			seed := sw.BaseSeed + uint64(p*sw.Seeds+k)
			sc, err := Generate(seed, pt.Gen)
			if err != nil {
				t.Fatal(err)
			}
			st, want := Derive(sc), deriveNaive(sc)
			if got := st.Edges(); got != want.edges {
				t.Fatalf("%s seed %d: %d lock-order edges, naive walk %d", pt.Label, seed, got, want.edges)
			}
			for task := range sc.Progs {
				if got := st.Claims(task); !slices.Equal(got, want.claims[task]) {
					t.Fatalf("%s seed %d: p%d claims %v, naive walk %v", pt.Label, seed, task, got, want.claims[task])
				}
			}
			if st.HasCycle() != want.hasCycle {
				t.Fatalf("%s seed %d: HasCycle=%v, naive walk %v", pt.Label, seed, st.HasCycle(), want.hasCycle)
			}
			if want.hasCycle {
				cycles++
			}
		}
	}
	// Both verdicts must be exercised: the sweep runs from ~5% static
	// cycles at m=256 to ~100% at m=8.
	if n := len(sw.Points) * sw.Seeds; cycles == 0 || cycles == n {
		t.Fatalf("%d of %d seeds cyclic: the check never saw both verdicts", cycles, n)
	}
}
