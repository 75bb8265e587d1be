package deltartos

// One benchmark per table and figure of the paper's evaluation (Section 5),
// plus the ablation benches called out in DESIGN.md.  Each benchmark reports
// the headline simulated-cycle metrics via b.ReportMetric so `go test
// -bench=.` regenerates the paper's rows.

import (
	"os"
	"strconv"
	"testing"
	"time"

	"deltartos/internal/analysis/framework"
	"deltartos/internal/analysis/passes"
	"deltartos/internal/app"
	"deltartos/internal/campaign"
	"deltartos/internal/daa"
	"deltartos/internal/dau"
	"deltartos/internal/ddu"
	"deltartos/internal/delta"
	"deltartos/internal/det"
	"deltartos/internal/experiments"
	"deltartos/internal/pdda"
	"deltartos/internal/rag"
	"deltartos/internal/sim"
	"deltartos/internal/socdmmu"
)

// ---- Table 1: DDU synthesis ----

func BenchmarkTable1DDUSynthesis(b *testing.B) {
	for _, size := range []struct{ p, r int }{{2, 3}, {5, 5}, {7, 7}, {10, 10}, {50, 50}} {
		size := size
		b.Run(sizeName(size.p, size.r), func(b *testing.B) {
			var sr ddu.SynthResult
			var err error
			for i := 0; i < b.N; i++ {
				sr, err = ddu.Synthesize(ddu.Config{Procs: size.p, Resources: size.r})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(sr.AreaGates), "gates")
			b.ReportMetric(float64(sr.VerilogLines), "verilog-lines")
			b.ReportMetric(float64(sr.WorstSteps), "worst-steps")
		})
	}
}

// ---- Table 2 / Figure 14: DAU synthesis ----

func BenchmarkTable2DAUSynthesis(b *testing.B) {
	var sr dau.SynthResult
	var err error
	for i := 0; i < b.N; i++ {
		sr, err = dau.Synthesize(dau.Config{Procs: 5, Resources: 5})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(sr.TotalArea), "gates")
	b.ReportMetric(float64(sr.AvoidanceSteps), "worst-steps")
}

// ---- Table 3 / Figure 7: framework generation ----

func BenchmarkTable3PresetGeneration(b *testing.B) {
	for _, name := range delta.PresetNames() {
		name := name
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c, err := delta.Preset(name)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := delta.Generate(&c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Tables 4-5 / Figure 15: deadlock detection scenario ----

func BenchmarkTable5Detection(b *testing.B) {
	b.Run("DDU", func(b *testing.B) {
		var res app.DetectionResult
		for i := 0; i < b.N; i++ {
			res = app.RunDetectionScenario(func() app.Detector {
				d, err := app.NewHardwareDetector(5, 5)
				if err != nil {
					b.Fatal(err)
				}
				return d
			})
		}
		report(b, res.DeadlockFound, float64(res.AppCycles), res.AvgDetectCycles)
	})
	b.Run("PDDA-software", func(b *testing.B) {
		var res app.DetectionResult
		for i := 0; i < b.N; i++ {
			res = app.RunDetectionScenario(func() app.Detector { return &app.SoftwareDetector{} })
		}
		report(b, res.DeadlockFound, float64(res.AppCycles), res.AvgDetectCycles)
	})
}

// ---- Tables 6-7 / Figure 16: grant deadlock avoidance ----

func BenchmarkTable7GdlAvoidance(b *testing.B) {
	b.Run("DAU", func(b *testing.B) {
		var res app.AvoidanceResult
		for i := 0; i < b.N; i++ {
			res = app.RunGrantDeadlockScenario(hwBackend(b))
		}
		report(b, res.GDlAvoided, float64(res.AppCycles), res.AvgAlgCycles)
	})
	b.Run("DAA-software", func(b *testing.B) {
		var res app.AvoidanceResult
		for i := 0; i < b.N; i++ {
			res = app.RunGrantDeadlockScenario(swBackend(b))
		}
		report(b, res.GDlAvoided, float64(res.AppCycles), res.AvgAlgCycles)
	})
}

// ---- Tables 8-9 / Figure 17: request deadlock avoidance ----

func BenchmarkTable9RdlAvoidance(b *testing.B) {
	b.Run("DAU", func(b *testing.B) {
		var res app.AvoidanceResult
		for i := 0; i < b.N; i++ {
			res = app.RunRequestDeadlockScenario(hwBackend(b))
		}
		report(b, res.RDlAvoided, float64(res.AppCycles), res.AvgAlgCycles)
	})
	b.Run("DAA-software", func(b *testing.B) {
		var res app.AvoidanceResult
		for i := 0; i < b.N; i++ {
			res = app.RunRequestDeadlockScenario(swBackend(b))
		}
		report(b, res.RDlAvoided, float64(res.AppCycles), res.AvgAlgCycles)
	})
}

// ---- Table 10 / Figures 18-20: robot application ----

func BenchmarkTable10Robot(b *testing.B) {
	b.Run("RTOS5-software", func(b *testing.B) {
		var res app.RobotResult
		for i := 0; i < b.N; i++ {
			res = app.RunRobotScenario(app.NewRTOS5Locks, false)
		}
		b.ReportMetric(float64(res.OverallCycles), "sim-cycles")
		b.ReportMetric(res.LockLatency, "lock-latency")
		b.ReportMetric(res.LockDelay, "lock-delay")
	})
	b.Run("RTOS6-SoCLC", func(b *testing.B) {
		var res app.RobotResult
		for i := 0; i < b.N; i++ {
			res = app.RunRobotScenario(app.NewRTOS6Locks, false)
		}
		b.ReportMetric(float64(res.OverallCycles), "sim-cycles")
		b.ReportMetric(res.LockLatency, "lock-latency")
		b.ReportMetric(res.LockDelay, "lock-delay")
	})
}

// ---- Tables 11-12: SPLASH-2 kernels ----

func BenchmarkTable11Splash(b *testing.B) {
	splashBench(b, "glibc", app.NewGlibcAllocator)
}

func BenchmarkTable12Splash(b *testing.B) {
	splashBench(b, "SoCDMMU", app.NewSoCDMMUAllocator)
}

func splashBench(b *testing.B, tag string, mk func() socdmmu.Allocator) {
	kernels := []struct {
		name string
		run  func(func() socdmmu.Allocator, ...app.Option) app.SplashResult
	}{
		{"LU", app.RunLU}, {"FFT", app.RunFFT}, {"RADIX", app.RunRadix},
	}
	for _, k := range kernels {
		k := k
		b.Run(k.name+"-"+tag, func(b *testing.B) {
			var res app.SplashResult
			for i := 0; i < b.N; i++ {
				res = k.run(mk)
			}
			if !res.Verified {
				b.Fatalf("%s output verification failed", k.name)
			}
			b.ReportMetric(float64(res.TotalCycles), "sim-cycles")
			b.ReportMetric(float64(res.MgmtCycles), "mgmt-cycles")
			b.ReportMetric(res.MgmtPercent, "mgmt-%")
		})
	}
}

// ---- Extension: parallel RADIX scaling (ext-parallel) ----

func BenchmarkExtParallelRadix(b *testing.B) {
	for _, pes := range []int{1, 2, 4} {
		pes := pes
		b.Run("PEs-"+itoa(pes), func(b *testing.B) {
			var res app.ParallelResult
			for i := 0; i < b.N; i++ {
				res = app.RunRadixParallel(app.NewSoCDMMUAllocator, pes)
			}
			if !res.Verified {
				b.Fatal("parallel radix output wrong")
			}
			b.ReportMetric(float64(res.TotalCycles), "sim-cycles")
			b.ReportMetric(res.Speedup, "speedup")
		})
	}
}

// ---- Figures 11-13: algorithm micro-benchmarks ----

func BenchmarkFig12TerminalReduction(b *testing.B) {
	for _, size := range []int{5, 10, 50} {
		size := size
		g := rag.Chain(size, size)
		b.Run(sizeName(size, size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mx := g.Matrix()
				pdda.Reduce(mx)
			}
		})
	}
}

func BenchmarkFig13DDUDetect(b *testing.B) {
	u, err := ddu.New(ddu.Config{Procs: 50, Resources: 50})
	if err != nil {
		b.Fatal(err)
	}
	if err := u.Load(rag.Chain(50, 50).Matrix()); err != nil {
		b.Fatal(err)
	}
	var res ddu.Result
	for i := 0; i < b.N; i++ {
		res = u.Detect()
	}
	b.ReportMetric(float64(res.Steps), "hw-steps")
}

// ---- Prior-work baseline comparison (Section 3.3.2 complexity ladder) ----

func BenchmarkDetectorBaselines(b *testing.B) {
	rng := det.New(11)
	graphs := make([]*rag.Graph, 32)
	for i := range graphs {
		graphs[i] = rag.Random(rng, 10, 10, 0.7, 0.3)
	}
	b.Run("PDDA", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pdda.DetectGraph(graphs[i%len(graphs)])
		}
	})
	b.Run("Holt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pdda.DetectHolt(graphs[i%len(graphs)])
		}
	})
	b.Run("Shoshani", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pdda.DetectShoshani(graphs[i%len(graphs)])
		}
	})
	b.Run("Leibfried", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pdda.DetectLeibfried(graphs[i%len(graphs)])
		}
	})
	b.Run("DFS-oracle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			graphs[i%len(graphs)].HasCycle()
		}
	})
}

// ---- Ablation: packed bit-plane reduction vs naive cell-by-cell ----

func BenchmarkAblationPackedVsNaive(b *testing.B) {
	g := rag.Random(det.New(3), 50, 50, 0.7, 0.3)
	b.Run("packed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mx := g.Matrix()
			pdda.Reduce(mx)
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mx := g.Matrix()
			pdda.ReduceCells(mx)
		}
	})
}

// ---- Bitset engine vs per-cell engine across geometries ----
//
// The go-test flavor of the BENCH_bitset.json comparison (deltasim
// -bench-bitset): the word-parallel reduction against the per-cell
// reference engine at 64x64, 1kx1k and 16kx16k, plus the zero-allocation
// graph-detect path.  Request density scales down with n so per-row request
// degree stays realistic at 16k; the cell engine scans every cell per pass
// regardless of density.
func BenchmarkBitsetReduce(b *testing.B) {
	points := []struct {
		label string
		m, n  int
		pReq  float64
	}{
		{"64x64", 64, 64, 0.15},
		{"1kx1k", 1024, 1024, 0.02},
		{"16kx16k", 16384, 16384, 0.002},
	}
	for _, pt := range points {
		pt := pt
		b.Run(pt.label, func(b *testing.B) {
			if pt.m >= 16384 && testing.Short() {
				b.Skip("16k cell sweep takes seconds per op")
			}
			g := rag.Random(det.New(1), pt.m, pt.n, 0.7, pt.pReq)
			pristine := g.Matrix()
			work := pristine.Clone()
			b.Run("cell", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					work.CopyFrom(pristine)
					pdda.ReduceCells(work)
				}
			})
			b.Run("bitset", func(b *testing.B) {
				var sc pdda.Scratch
				b.ReportAllocs()
				pdda.ReduceInto(&sc, pristine)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pdda.ReduceInto(&sc, pristine)
				}
			})
		})
	}
}

// BenchmarkBitsetDetectGraph measures the steady-state fuzz-executor scan:
// graph-to-matrix mapping plus full reduction in caller-owned scratch.  The
// allocs/op column must read 0 (gated by TestDetectDoesNotAllocate).
func BenchmarkBitsetDetectGraph(b *testing.B) {
	g := rag.Random(det.New(1), 1024, 1024, 0.7, 0.02)
	var sc pdda.Scratch
	b.ReportAllocs()
	pdda.DetectGraphInto(&sc, g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pdda.DetectGraphInto(&sc, g)
	}
}

// ---- Ablation: DAU livelock threshold sensitivity ----

func BenchmarkAblationDAULivelockThreshold(b *testing.B) {
	for _, thr := range []int{1, 3, 6} {
		thr := thr
		b.Run(thresholdName(thr), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				u, err := dau.New(dau.Config{Procs: 4, Resources: 4, LivelockThreshold: thr})
				if err != nil {
					b.Fatal(err)
				}
				driveContention(b, u)
			}
		})
	}
}

// driveContention replays a short high-contention command tape.
func driveContention(b *testing.B, u *dau.Unit) {
	for p := 0; p < 4; p++ {
		u.SetPriority(p, daa.Priority(4-p)) // inverted priorities provoke give-ups
	}
	rng := det.New(99)
	for step := 0; step < 120; step++ {
		p, q := rng.Intn(4), rng.Intn(4)
		if u.Holder(q) == p {
			if _, _, err := u.Release(p, q); err != nil {
				b.Fatal(err)
			}
			continue
		}
		st, _, err := u.Request(p, q)
		if err != nil {
			b.Fatal(err)
		}
		if st.GiveUp {
			for _, h := range u.Avoider().Graph().HeldBy(p) {
				if _, _, err := u.Release(p, h); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// ---- Ablation: bus arbitration policy under contention ----

func BenchmarkAblationBusArbitration(b *testing.B) {
	run := func(policy sim.Arbitration) (end sim.Cycles, stall sim.Cycles) {
		s := sim.New()
		s.Bus.SetArbitration(policy)
		for pe := 0; pe < 4; pe++ {
			s.Spawn("pe", pe, func(p *sim.Proc) {
				for i := 0; i < 200; i++ {
					s.Bus.Transact(p, 4)
					p.Delay(2)
				}
			})
		}
		return s.Run(), s.Bus.StallCycles
	}
	b.Run("FCFS", func(b *testing.B) {
		var end, stall sim.Cycles
		for i := 0; i < b.N; i++ {
			end, stall = run(sim.ArbFCFS)
		}
		b.ReportMetric(float64(end), "sim-cycles")
		b.ReportMetric(float64(stall), "stall-cycles")
	})
	b.Run("priority", func(b *testing.B) {
		var end, stall sim.Cycles
		for i := 0; i < b.N; i++ {
			end, stall = run(sim.ArbPriority)
		}
		b.ReportMetric(float64(end), "sim-cycles")
		b.ReportMetric(float64(stall), "stall-cycles")
	})
}

// ---- helpers ----

func sizeName(p, r int) string {
	return itoa(p) + "x" + itoa(r)
}

func thresholdName(t int) string { return "threshold-" + itoa(t) }

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf []byte
	for v > 0 {
		buf = append([]byte{byte('0' + v%10)}, buf...)
		v /= 10
	}
	return string(buf)
}

func report(b *testing.B, ok bool, appCycles, algCycles float64) {
	b.Helper()
	if !ok {
		b.Fatal("scenario outcome check failed")
	}
	b.ReportMetric(appCycles, "sim-cycles")
	b.ReportMetric(algCycles, "alg-cycles")
}

func hwBackend(b *testing.B) func() app.AvoidanceBackend {
	return func() app.AvoidanceBackend {
		be, err := app.NewHardwareAvoidance(5, 5)
		if err != nil {
			b.Fatal(err)
		}
		return be
	}
}

func swBackend(b *testing.B) func() app.AvoidanceBackend {
	return func() app.AvoidanceBackend {
		be, err := app.NewSoftwareAvoidance(5, 5)
		if err != nil {
			b.Fatal(err)
		}
		return be
	}
}

// ---- Campaign engine / sim hot path ----

// BenchmarkSimDispatch measures the cost of one scheduled timer event:
// push + pop on the event heap plus the resume/yield handshake.  The
// acceptance gate is 0 allocs/op — the de-boxed heap must not allocate in
// steady state.
func BenchmarkSimDispatch(b *testing.B) {
	b.ReportAllocs()
	s := sim.New()
	s.Spawn("bench", 0, func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Delay(1)
		}
	})
	b.ResetTimer()
	s.Run()
}

// BenchmarkChaosCampaign compares a sequential seed sweep against the
// worker-pool sharded one (the `deltasim -parallel` path).  Output identity
// between the two is asserted by the tests; this measures the wall-clock
// ratio that `make bench-campaign` records in BENCH_campaign.json.
func BenchmarkChaosCampaign(b *testing.B) {
	cfg := experiments.DefaultChaosConfig()
	cfg.Seeds = 32
	for _, tc := range []struct {
		name    string
		workers int
	}{
		{"sequential", 1},
		{"parallel", campaign.DefaultWorkers()},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rc := &experiments.RunCtx{Parallel: tc.workers}
				if _, _, err := experiments.RunChaosCampaign(cfg, rc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Deltalint: full-module static analysis ----

// BenchmarkDeltalint runs every analysis pass over the whole module, the
// same work `make lint` does.  The load is measured too, so one iteration
// is one end-to-end lint; load-ms/op and passes-ms/op split its host time
// between the loader and the ten passes.
func BenchmarkDeltalint(b *testing.B) {
	var load, run time.Duration
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		pkgs, err := framework.LoadModule(".", "./...")
		if err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		diags, err := framework.Run(pkgs, passes.All())
		if err != nil {
			b.Fatal(err)
		}
		if len(diags) != 0 {
			b.Fatalf("lint tree not clean: %d finding(s), first: %s", len(diags), diags[0].Message)
		}
		load += t1.Sub(t0)
		run += time.Since(t1)
	}
	perOpMs := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) / float64(b.N) }
	b.ReportMetric(perOpMs(load), "load-ms/op")
	b.ReportMetric(perOpMs(run), "passes-ms/op")
}

// TestDeltalintTimeBudget guards `make lint`'s wall clock: one full-module
// lint (load plus all ten passes, the BenchmarkDeltalint body) must finish
// inside DELTALINT_BUDGET_MS, defaulting to 3400 ms — roughly twice the
// pre-summary-engine seed time — so the interprocedural layer cannot
// quietly regress the merge gate.  The load alone must finish inside 30% of
// that budget (1020 ms by default), so a loader regression fails under its
// own name rather than as a slow lint.  Override the budget via the
// environment on slower machines; the load bound scales with it.
// Race-detector builds multiply the budget by 6: the instrumentation slows
// type-checking and the passes several-fold, and the budget guards the
// uninstrumented merge gate, not -race runs.
func TestDeltalintTimeBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock budget is not meaningful under -short")
	}
	budget := 3400 * time.Millisecond
	if raceEnabled {
		budget *= 6
	}
	if s := os.Getenv("DELTALINT_BUDGET_MS"); s != "" {
		ms, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("DELTALINT_BUDGET_MS=%q: %v", s, err)
		}
		budget = time.Duration(ms) * time.Millisecond
	}
	loadBudget := budget * 3 / 10
	start := time.Now()
	pkgs, err := framework.LoadModule(".", "./...")
	if err != nil {
		t.Fatal(err)
	}
	if load := time.Since(start); load > loadBudget {
		t.Errorf("framework loader took %v for the full module, over its %v bound (30%% of the deltalint budget)", load, loadBudget)
	}
	diags, err := framework.Run(pkgs, passes.All())
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("lint tree not clean: %d finding(s), first: %s", len(diags), diags[0].Message)
	}
	if elapsed := time.Since(start); elapsed > budget {
		t.Errorf("full-module deltalint took %v, over the %v budget (override with DELTALINT_BUDGET_MS)", elapsed, budget)
	}
}
