package main

import (
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"deltartos/internal/fuzz"
	"deltartos/internal/rag"
)

// TestMain lets the test binary serve as a chaos child, as the driver
// binary does.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(serveChaos())
	}
	os.Exit(m.Run())
}

// BENCHMARK.json's metric lists must match what the driver reports.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	declared := map[string]string{}
	for _, m := range b.PerLayer {
		declared[m.Name] = m.Unit
	}
	if !reflect.DeepEqual(declared, perLayerUnits) {
		t.Errorf("per_layer in BENCHMARK.json differs from perLayerUnits")
	}
	var e2e []string
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	if want := []string{"setup_s", "cpu_us_per_op", "alloc_kb_per_op"}; !slices.Equal(e2e, want) {
		t.Errorf("end_to_end = %v, want %v", e2e, want)
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	b := tr.buf()
	root := b.start("root", 0, 1)
	child := b.start("child", root, 1)
	b.stop(child)
	b.stop(root)
	b.spans[0].start, b.spans[0].end = 0, 100
	b.spans[1].start, b.spans[1].end = 10, 40
	lt := tr.layers()
	if lt.self["root"] != 70e-9 || lt.self["child"] != 30e-9 {
		t.Errorf("self times %v, want root 70ns child 30ns", lt.self)
	}
	var nilTracer *tracer
	if id := nilTracer.buf().start("x", 0, 0); id != 0 {
		t.Errorf("nil tracer recorded span %d", id)
	}
}

// fuzz-sweep: the report checks reject a planted mismatch, a short point and
// a replay that disagrees; the digest is the same at 1 and 2 workers.
func TestFuzzChecks(t *testing.T) {
	sw := fuzz.DefaultSweep(16, 5)
	rep, err := fuzz.RunSweep(sw, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p := checkSweepReport(rep, sw); len(p) != 0 {
		t.Fatalf("clean sweep rejected: %v", p)
	}
	counts, err := replaySweep(sw, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p := compareReplay(rep, counts); len(p) != 0 {
		t.Fatalf("replay disagrees with the report: %v", p)
	}
	one, err := fuzz.RunSweep(sw, 1)
	if err != nil {
		t.Fatal(err)
	}
	d1, _ := reportDigest(one)
	d2, _ := reportDigest(rep)
	if d1 != d2 {
		t.Errorf("digest at 1 worker %s, at 2 workers %s", d1, d2)
	}

	planted := *rep
	planted.Points = slices.Clone(rep.Points)
	planted.Points[3].Mismatches, planted.Points[3].FirstMismatch = 1, "planted"
	if p := checkSweepReport(&planted, sw); len(p) == 0 {
		t.Error("planted mismatch accepted")
	}
	if d, _ := reportDigest(&planted); d == d2 {
		t.Error("planted report has the clean digest")
	}
	planted.Points = slices.Clone(rep.Points)
	planted.Points[0].Seeds--
	if p := checkSweepReport(&planted, sw); len(p) == 0 {
		t.Error("short point accepted")
	}
	counts[2].Deadlocked++
	if p := compareReplay(rep, counts); len(p) == 0 {
		t.Error("disagreeing replay accepted")
	}
}

// lint-module: a changed finding set or package count is rejected.
func TestLintChecks(t *testing.T) {
	if p := checkLint(frozenPackages, nil); len(p) != 0 {
		t.Fatalf("pinned output rejected: %v", p)
	}
	if p := checkLint(frozenPackages, []string{"internal/rag/rag.go:1:1: lockorder: planted"}); len(p) == 0 {
		t.Error("planted finding accepted")
	}
	if p := checkLint(frozenPackages-1, nil); len(p) == 0 {
		t.Error("missing package accepted")
	}
}

// The frozen tree lints to its pinned output.
func TestFrozenTreeLintsToPinnedOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole frozen module")
	}
	l := &lintModule{dir: t.TempDir()}
	if err := extractTree(frozenTree, l.dir); err != nil {
		t.Fatal(err)
	}
	r, err := l.job(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.ops != frozenPackages || r.failed != 0 || len(l.problems) != 0 {
		t.Errorf("ops %d failed %d problems %v", r.ops, r.failed, l.problems)
	}
}

// chaos-soc: block 1 holds the known rtos5 crash seed 110.  Running it
// twice gives the same outcomes and golden digests, the crash is isolated
// and counted, and a planted wrong report, an unexpected crash or a known
// crash that does not happen is rejected.
func TestChaosChecks(t *testing.T) {
	c := newChaosSoc(0)
	if err := c.setup(); err != nil {
		t.Fatal(err)
	}
	defer c.pool.stop()
	outs, err := c.pool.run(blockTasks(1, false))
	if err != nil {
		t.Fatal(err)
	}
	again, err := c.pool.run(blockTasks(1, false))
	if err != nil {
		t.Fatal(err)
	}
	var crashed []uint64
	for i, o := range outs {
		if o.crashed {
			crashed = append(crashed, o.task.Seed)
		}
		if o.crashed != again[i].crashed || o.reply.Record != again[i].reply.Record || o.reply.End != again[i].reply.End {
			t.Errorf("%s seed %d differs between two runs", o.task.System, o.task.Seed)
		}
	}
	if !slices.Equal(crashed, []uint64{110}) {
		t.Errorf("crashed seeds %v, want [110]", crashed)
	}
	if p := c.golden.checkBlock(1, outs); len(p) != 0 {
		t.Fatalf("clean block rejected: %v", p)
	}

	planted := slices.Clone(outs)
	for i := range planted {
		if planted[i].task.System == "rtos6" && planted[i].task.Seed == 70 {
			planted[i].reply.Record = strings.Replace(planted[i].reply.Record, `"fired":`, `"fired":1`, 1)
		}
	}
	if p := c.golden.checkBlock(1, planted); len(p) == 0 {
		t.Error("planted report accepted")
	}
	planted = slices.Clone(outs)
	planted[0].crashed = true
	if p := c.golden.checkBlock(1, planted); len(p) == 0 {
		t.Error("unexpected crash accepted")
	}
	planted = slices.Clone(outs)
	for i := range planted {
		planted[i].crashed = false
	}
	if p := c.golden.checkBlock(1, planted); len(p) == 0 {
		t.Error("missing crash accepted")
	}
	r, err := c.job(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.ops != len(outs) || r.failed != 0 || r.crashed != 1 || len(c.problems) != 0 {
		t.Errorf("job over block 1: ops %d failed %d crashed %d problems %v, want %d 0 1 none",
			r.ops, r.failed, r.crashed, c.problems, len(outs))
	}

	for _, sys := range chaosSystems {
		want := c.golden.Tables[sys][0]
		got, err := renderTable(sys, want.Base)
		if err != nil {
			t.Fatal(err)
		}
		if got != want.Digest {
			t.Errorf("%s table at %d: %s, want %s", sys, want.Base, got, want.Digest)
		}
		if other, _ := renderTable(sys, want.Base+1); other == want.Digest {
			t.Errorf("%s table digest does not depend on its seeds", sys)
		}
	}
}

// detect-stream: the same seed gives byte-identical draws and decision
// digests; another seed gives other draws.
func TestDetectStreamDeterminism(t *testing.T) {
	if !slices.Equal(genDraws(7, 3, 500), genDraws(7, 3, 500)) {
		t.Fatal("draws differ for the same seed")
	}
	if slices.Equal(genDraws(7, 3, 500), genDraws(8, 3, 500)) {
		t.Fatal("draws equal for different seeds")
	}
	digests := func() [2]digest {
		det, err := newDetectEngines(true)
		if err != nil {
			t.Fatal(err)
		}
		av, err := newAvoidEngines(7, true)
		if err != nil {
			t.Fatal(err)
		}
		for j := -1; j <= 0; j++ {
			if err := runStream(det, av, genDraws(7, j, 2*streamEvents)); err != nil {
				t.Fatal(err)
			}
		}
		if len(det.mismatches) != 0 || len(av.problems) != 0 {
			t.Fatalf("engines disagree: %v %v", det.mismatches, av.problems)
		}
		if det.counts.deadlocks == 0 || av.counts.refusals == 0 {
			t.Fatalf("stream exercises too little: %+v %+v", det.counts, av.counts)
		}
		return [2]digest{det.digest, av.digest}
	}
	a, b := digests(), digests()
	if p := compareDigests(a, b); len(p) != 0 {
		t.Fatal(p)
	}
	if p := compareDigests(a, [2]digest{a[0], a[1] + 1}); len(p) == 0 {
		t.Error("planted digest accepted")
	}
}

// detect-stream: a DDU whose matrix has stuck cells disagrees with PDDA and
// HasCycle, and the check catches it.
func TestDetectStreamCatchesFaultyDDU(t *testing.T) {
	det, err := newDetectEngines(false)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < streamRes; s++ {
		if err := det.u.InjectFault(s, 0, rag.Request); err != nil {
			t.Fatal(err)
		}
	}
	for _, dr := range genDraws(7, 0, streamEvents) {
		if err := det.step(dr, nil, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if len(det.mismatches) == 0 {
		t.Error("faulty DDU not caught")
	}
}

// The whole workload path: a short traced run of detect-stream reports
// every per-layer metric and passes its check.
func TestDetectStreamRun(t *testing.T) {
	w := newDetectStream(3)
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	un, err := measure(w, 0.2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	tt, err := measure(w, 0.2, un.jobs, tr)
	if err != nil {
		t.Fatal(err)
	}
	if p := w.check(); len(p) != 0 {
		t.Fatal(p)
	}
	m := metrics{}
	w.layers(tr, un, tt, m)
	for _, name := range []string{"pdda.detect_us_p50", "ddu.detect_us_p99", "daa.banker_request_us_p50", "detect.events_per_s"} {
		if m[name].Value <= 0 {
			t.Errorf("%s = %v", name, m[name].Value)
		}
	}
}
