package daa

import (
	"fmt"
	"slices"
	"testing"

	"deltartos/internal/det"
)

// The word-parallel Banker and the per-cell RefBanker must make identical
// grant/refuse decisions on identical traffic — random claim sets and
// request/release streams across word-boundary geometries.
func TestBankerMatchesRefBanker(t *testing.T) {
	rng := det.New(41)
	for _, geo := range laneEdgeGeometries {
		for trial := 0; trial < 10; trial++ {
			fast, ref := newBankerPair(t, geo.procs, geo.resources)
			for p := 0; p < geo.procs; p++ {
				for q := 0; q < geo.resources; q++ {
					if rng.Float64() < 0.5 {
						if err := fast.DeclareClaim(p, q); err != nil {
							t.Fatal(err)
						}
						if err := ref.DeclareClaim(p, q); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			label := fmt.Sprintf("%d procs x %d res trial %d", geo.procs, geo.resources, trial)
			diffBankerTraffic(t, rng, fast, ref, label)
		}
	}
}

// laneEdgeGeometries are the (procs, resources) shapes the Banker
// differentials run on: single cells, both sides of the 64-bit word edge,
// and more processes than resources.
var laneEdgeGeometries = []struct{ procs, resources int }{
	{1, 1}, {3, 5}, {5, 64}, {4, 65}, {8, 127}, {12, 200}, {64, 8},
}

func newBankerPair(t *testing.T, procs, resources int) (*Banker, *RefBanker) {
	t.Helper()
	fast, err := NewBanker(procs, resources)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewRefBanker(procs, resources)
	if err != nil {
		t.Fatal(err)
	}
	return fast, ref
}

// diffBankerTraffic drives 500 random request/release steps through both
// engines and fails on the first grant/refuse or refusal-count divergence.
func diffBankerTraffic(t *testing.T, rng *det.RNG, fast *Banker, ref *RefBanker, label string) {
	t.Helper()
	resources, procs := fast.Graph().Size()
	for step := 0; step < 500; step++ {
		p := rng.Intn(procs)
		q := rng.Intn(resources)
		if held := fast.Graph().HeldBy(p); len(held) > 0 && rng.Float64() < 0.4 {
			q = held[rng.Intn(len(held))]
			if err := fast.Release(p, q); err != nil {
				t.Fatalf("%s step %d: fast release: %v", label, step, err)
			}
			if err := ref.Release(p, q); err != nil {
				t.Fatalf("%s step %d: ref release: %v", label, step, err)
			}
			continue
		}
		fastGrant, fastErr := fast.Request(p, q)
		refGrant, refErr := ref.Request(p, q)
		if (fastErr == nil) != (refErr == nil) {
			t.Fatalf("%s step %d: error divergence: fast=%v ref=%v", label, step, fastErr, refErr)
		}
		if fastGrant != refGrant {
			t.Fatalf("%s step %d: p%d req q%d: fast granted=%v ref granted=%v",
				label, step, p, q, fastGrant, refGrant)
		}
	}
	if fast.Refusals != ref.Refusals {
		t.Fatalf("%s: refusal counts diverge: fast=%d ref=%d", label, fast.Refusals, ref.Refusals)
	}
}

// RefBanker's claim lists must equal the set bits of its claim rows, in
// ascending order, however DeclareClaim is called: repeated, with
// duplicates inside one call, out of order.  With claims declared that way
// the RefBanker must still decide exactly as Banker does.
func TestRefBankerClaimLists(t *testing.T) {
	checkLists := func(ref *RefBanker, label string) {
		t.Helper()
		for p, row := range ref.claims {
			var want []int
			for q, c := range row {
				if c {
					want = append(want, q)
				}
			}
			if !slices.Equal(ref.claimList[p], want) {
				t.Fatalf("%s: p%d claim list %v, claim row bits %v", label, p, ref.claimList[p], want)
			}
		}
	}

	ref, err := NewRefBanker(2, 70)
	if err != nil {
		t.Fatal(err)
	}
	for _, call := range [][]int{{5, 3, 5}, {1}, {69, 64, 3, 1}, {0}} {
		if err := ref.DeclareClaim(1, call...); err != nil {
			t.Fatal(err)
		}
		checkLists(ref, fmt.Sprintf("after DeclareClaim(1, %v)", call))
	}
	if want := []int{0, 1, 3, 5, 64, 69}; !slices.Equal(ref.claimList[1], want) {
		t.Fatalf("p1 claim list %v, want %v", ref.claimList[1], want)
	}
	if len(ref.claimList[0]) != 0 {
		t.Fatalf("p0 never claimed, claim list %v", ref.claimList[0])
	}

	rng := det.New(43)
	for _, geo := range laneEdgeGeometries {
		for trial := 0; trial < 10; trial++ {
			fast, ref := newBankerPair(t, geo.procs, geo.resources)
			label := fmt.Sprintf("%d procs x %d res trial %d", geo.procs, geo.resources, trial)
			for call := 0; call < 3*geo.procs; call++ {
				p := rng.Intn(geo.procs)
				qs := make([]int, 1+rng.Intn(4))
				for i := range qs {
					qs[i] = rng.Intn(geo.resources)
				}
				if err := fast.DeclareClaim(p, qs...); err != nil {
					t.Fatal(err)
				}
				if err := ref.DeclareClaim(p, qs...); err != nil {
					t.Fatal(err)
				}
				checkLists(ref, label)
			}
			diffBankerTraffic(t, rng, fast, ref, label)
		}
	}
}

// Warm Banker and Avoider must decide steady-state traffic without
// allocating: the safety scan runs in Banker-owned scratch and the avoider's
// tentative edges land in a reused trial graph plus a pdda.Scratch.
func TestAvoidancePathsDoNotAllocate(t *testing.T) {
	b, err := NewBanker(8, 16)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 8; p++ {
		for q := 0; q < 16; q++ {
			if err := b.DeclareClaim(p, q); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := b.Request(0, 0); err != nil { // warm
		t.Fatal(err)
	}
	if err := b.Release(0, 0); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if _, err := b.Request(0, 0); err != nil {
			t.Fatal(err)
		}
		if err := b.Release(0, 0); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 {
		t.Errorf("Banker request/release allocated %.0f times per cycle, want 0", allocs)
	}

	a, err := New(Config{Procs: 8, Resources: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Request(0, 0); err != nil { // warm
		t.Fatal(err)
	}
	if _, err := a.Release(0, 0); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if _, err := a.Request(0, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Release(0, 0); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 {
		t.Errorf("Avoider request/release allocated %.0f times per cycle, want 0", allocs)
	}
}

// A deliberately unsafe configuration both engines must refuse: two
// processes each claiming both resources, one grant out — handing the second
// resource to the other process leaves no safe completion order.
func TestBankerUnsafeRefusalMatchesRef(t *testing.T) {
	fast, _ := NewBanker(2, 2)
	ref, _ := NewRefBanker(2, 2)
	for _, b := range []interface {
		DeclareClaim(int, ...int) error
	}{fast, ref} {
		if err := b.DeclareClaim(0, 0, 1); err != nil {
			t.Fatal(err)
		}
		if err := b.DeclareClaim(1, 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	if g, _ := fast.Request(0, 0); !g {
		t.Fatal("fast: first grant refused")
	}
	if g, _ := ref.Request(0, 0); !g {
		t.Fatal("ref: first grant refused")
	}
	fastG, _ := fast.Request(1, 1)
	refG, _ := ref.Request(1, 1)
	if fastG != refG {
		t.Fatalf("unsafe grant divergence: fast=%v ref=%v", fastG, refG)
	}
	if fastG {
		t.Fatal("granting q1 to p1 while p0 holds q0 with full cross-claims is unsafe")
	}
}
