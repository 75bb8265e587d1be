package pdda_test

import (
	"testing"

	"deltartos/internal/ddu"
	"deltartos/internal/det"
	"deltartos/internal/pdda"
	"deltartos/internal/rag"
)

// The word-parallel engine and the per-cell reference engine must agree on
// verdict, step count, and the irreducible matrix itself, across random
// graphs and awkward word geometries.
func TestBitsetEngineMatchesCellEngine(t *testing.T) {
	rng := det.New(7)
	sizes := []struct{ m, n int }{
		{1, 1}, {3, 1}, {1, 3}, {5, 5}, {64, 64}, {65, 64}, {64, 65},
		{63, 129}, {129, 63}, {10, 200}, {200, 10},
	}
	var sc pdda.Scratch
	for _, size := range sizes {
		for trial := 0; trial < 20; trial++ {
			g := rag.Random(rng, size.m, size.n, 0.6, 0.15)
			mx := g.Matrix()

			cellCopy := mx.Clone()
			cellK := pdda.ReduceCells(cellCopy)
			wordCopy := mx.Clone()
			wordK, _ := pdda.Reduce(wordCopy)
			if cellK != wordK {
				t.Fatalf("%dx%d trial %d: ReduceCells k=%d, Reduce k=%d", size.m, size.n, trial, cellK, wordK)
			}
			if !cellCopy.Equal(wordCopy) {
				t.Fatalf("%dx%d trial %d: irreducible matrices differ", size.m, size.n, trial)
			}

			wantDead := pdda.DetectCells(mx)
			if dead, _ := pdda.Detect(mx); dead != wantDead {
				t.Fatalf("%dx%d trial %d: Detect=%v, DetectCells=%v", size.m, size.n, trial, dead, wantDead)
			}
			if dead, _ := pdda.DetectInto(&sc, mx); dead != wantDead {
				t.Fatalf("%dx%d trial %d: DetectInto=%v, DetectCells=%v", size.m, size.n, trial, dead, wantDead)
			}
			if dead, _ := pdda.DetectGraphInto(&sc, g); dead != wantDead {
				t.Fatalf("%dx%d trial %d: DetectGraphInto=%v, DetectCells=%v", size.m, size.n, trial, dead, wantDead)
			}
			if dead := pdda.DetectGraphCells(g); dead != wantDead {
				t.Fatalf("%dx%d trial %d: DetectGraphCells=%v, DetectCells=%v", size.m, size.n, trial, dead, wantDead)
			}
		}
	}
}

// Stats is the abstract cost model the simulator converts to bus cycles; the
// scratch path must charge exactly what the legacy clone path charges, which
// in turn is pinned to the per-cell formula (N reads per row scan, M·N per
// column scan, N writes per cleared row, M per cleared column, plus the
// construct/test M·N passes of Algorithm 2).
func TestStatsMatchAcrossPaths(t *testing.T) {
	rng := det.New(21)
	var sc pdda.Scratch
	for trial := 0; trial < 50; trial++ {
		g := rag.Random(rng, 7, 13, 0.7, 0.25)
		mx := g.Matrix()
		_, legacy := pdda.Detect(mx)
		_, scratch := pdda.DetectInto(&sc, mx)
		if legacy != scratch {
			t.Fatalf("trial %d: Detect stats %+v != DetectInto stats %+v", trial, legacy, scratch)
		}
		_, graphScratch := pdda.DetectGraphInto(&sc, g)
		if legacy != graphScratch {
			t.Fatalf("trial %d: Detect stats %+v != DetectGraphInto stats %+v", trial, legacy, graphScratch)
		}
	}

	// Worked example: a 2x3 chain reduces in its bounded step count and the
	// accounting follows the closed-form cell model.
	g := rag.Chain(2, 3)
	mx := g.Matrix()
	_, st := pdda.Detect(mx)
	if st.Iterations < 1 {
		t.Fatalf("chain(2,3): %d iterations, want at least 1", st.Iterations)
	}
	// Per step: row scans read M·N cells, the column scan reads M·N more;
	// plus Algorithm 2's construct (M·N writes) and final test (M·N reads).
	wantReads := (st.Iterations+1)*2*2*3 + 2*3
	if st.CellReads != wantReads {
		t.Fatalf("chain(2,3): CellReads=%d, want %d", st.CellReads, wantReads)
	}
}

// TestDetectDoesNotAllocate is the steady-state gate mirroring
// TestDispatchDoesNotAllocate: once the scratch is warm, a detection scan —
// graph→matrix mapping, reduction, emptiness test — performs zero
// allocations, as do the graph-side cycle queries.
func TestDetectDoesNotAllocate(t *testing.T) {
	g := rag.Random(det.New(3), 48, 96, 0.7, 0.2)
	var sc pdda.Scratch
	pdda.DetectGraphInto(&sc, g) // warm the scratch
	if allocs := testing.AllocsPerRun(10, func() { pdda.DetectGraphInto(&sc, g) }); allocs > 0 {
		t.Errorf("DetectGraphInto allocated %.0f times per scan, want 0", allocs)
	}
	mx := g.Matrix()
	pdda.DetectInto(&sc, mx)
	if allocs := testing.AllocsPerRun(10, func() { pdda.DetectInto(&sc, mx) }); allocs > 0 {
		t.Errorf("DetectInto allocated %.0f times per scan, want 0", allocs)
	}
	g.HasCycle() // warm the graph scratch
	if allocs := testing.AllocsPerRun(10, func() { g.HasCycle() }); allocs > 0 {
		t.Errorf("Graph.HasCycle allocated %.0f times per query, want 0", allocs)
	}
	acyclic := rag.Chain(32, 32)
	acyclic.Cycle()
	if allocs := testing.AllocsPerRun(10, func() { acyclic.Cycle() }); allocs > 0 {
		t.Errorf("Graph.Cycle (acyclic) allocated %.0f times per query, want 0", allocs)
	}
	acyclic.DeadlockedProcesses()
	if allocs := testing.AllocsPerRun(10, func() { acyclic.DeadlockedProcesses() }); allocs > 0 {
		t.Errorf("Graph.DeadlockedProcesses (clear) allocated %.0f times per query, want 0", allocs)
	}
}

// The DDU reduces through this engine on a scratch it owns, so a warm unit
// reloading a full-size matrix and re-running detection allocates nothing.
func TestDDUDetectDoesNotAllocate(t *testing.T) {
	mx := rag.Chain(256, 64).Matrix()
	u, err := ddu.New(ddu.Config{Procs: 64, Resources: 256})
	if err != nil {
		t.Fatal(err)
	}
	detect := func() {
		if err := u.Load(mx); err != nil {
			t.Fatal(err)
		}
		u.Detect()
	}
	detect() // warm the unit's scratch
	if allocs := testing.AllocsPerRun(10, detect); allocs > 0 {
		t.Errorf("ddu Load+Detect allocated %.0f times per scan, want 0", allocs)
	}
}
