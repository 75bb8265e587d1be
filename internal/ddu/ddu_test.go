package ddu

import (
	"strings"
	"testing"

	"deltartos/internal/det"
	"deltartos/internal/pdda"
	"deltartos/internal/rag"
	"deltartos/internal/verilog"
)

func mustNew(t *testing.T, procs, res int) *Unit {
	t.Helper()
	u, err := New(Config{Procs: procs, Resources: res})
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{Procs: 0, Resources: 5}).Validate(); err == nil {
		t.Error("zero processes accepted")
	}
	if err := (Config{Procs: 5, Resources: -1}).Validate(); err == nil {
		t.Error("negative resources accepted")
	}
	if err := (Config{Procs: 5, Resources: 5}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New accepted zero config")
	}
}

func TestDetectEmptyMatrix(t *testing.T) {
	u := mustNew(t, 5, 5)
	res := u.Detect()
	if res.Deadlock {
		t.Error("empty matrix deadlocked")
	}
	if res.Iterations != 0 {
		t.Errorf("Iterations = %d, want 0", res.Iterations)
	}
	if res.Steps != 2 {
		t.Errorf("Steps = %d, want floor of 2", res.Steps)
	}
}

func TestDetectCycleViaCommands(t *testing.T) {
	// Program the classic 2-cycle through the command interface.
	u := mustNew(t, 5, 5)
	u.SetGrant(0, 0)
	u.SetGrant(1, 1)
	u.SetRequest(1, 0)
	u.SetRequest(0, 1)
	if res := u.Detect(); !res.Deadlock {
		t.Error("2-cycle not detected")
	}
	// Break the cycle.
	u.ClearCell(0, 1)
	if res := u.Detect(); res.Deadlock {
		t.Error("broken cycle still detected")
	}
}

func TestDetectPreservesMatrix(t *testing.T) {
	u := mustNew(t, 4, 4)
	u.SetGrant(0, 0)
	u.SetRequest(1, 0)
	before := u.Matrix().Clone()
	u.Detect()
	if !u.Matrix().Equal(before) {
		t.Error("Detect consumed the matrix")
	}

	// A faulted unit evaluates its stuck cells on a private image: the true
	// matrix (what CrossCheck's software side reads) is left as it was.
	// With q2 held by p2, cell (q1, p2) stuck at request closes the cycle
	// p1 -> q2 -> p2 -> q1 -> p1 inside the unit only.
	u.SetGrant(1, 1)
	before = u.Matrix().Clone()
	healthy := u.Detect()
	if err := u.InjectFault(0, 1, rag.Request); err != nil {
		t.Fatal(err)
	}
	if faulty := u.Detect(); faulty.Deadlock == healthy.Deadlock {
		t.Fatalf("stuck-at fault did not change the verdict (%v)", faulty.Deadlock)
	}
	if !u.Matrix().Equal(before) {
		t.Errorf("faulted Detect wrote its stuck cells into the matrix:\n%s", u.Matrix())
	}
	u.ClearFaults()
	if res := u.Detect(); res != healthy {
		t.Errorf("after ClearFaults: %+v, healthy unit gave %+v", res, healthy)
	}
}

func TestLoadSizeCheck(t *testing.T) {
	u := mustNew(t, 4, 4)
	if err := u.Load(rag.NewMatrix(5, 4)); err == nil {
		t.Error("Load accepted wrong-size matrix")
	}
	if err := u.Load(rag.NewMatrix(4, 4)); err != nil {
		t.Errorf("Load rejected correct size: %v", err)
	}
}

// Load writes into the unit's matrix in place, so a smaller matrix loaded
// after a full one must clear every cell outside its corner.
func TestLoadSmallerClearsOutsideCorner(t *testing.T) {
	u := mustNew(t, 5, 5)
	full := rag.NewMatrix(5, 5)
	for s := 0; s < 5; s++ {
		for t := 0; t < 5; t++ {
			full.Set(s, t, rag.Request)
		}
		full.Set(s, s, rag.Grant)
	}
	if err := u.Load(full); err != nil {
		t.Fatal(err)
	}
	small := rag.CycleGraph(4, 4, 2).Matrix()
	if err := u.Load(small); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 5; s++ {
		for c := 0; c < 5; c++ {
			want := rag.None
			if s < 4 && c < 4 {
				want = small.Get(s, c)
			}
			if got := u.Matrix().Get(s, c); got != want {
				t.Errorf("cell (%d,%d) = %v after the 4x4 load, want %v", s, c, got, want)
			}
		}
	}
}

func TestLoadIsACopy(t *testing.T) {
	u := mustNew(t, 3, 3)
	mx := rag.NewMatrix(3, 3)
	if err := u.Load(mx); err != nil {
		t.Fatal(err)
	}
	mx.Set(0, 0, rag.Grant)
	if u.Matrix().Get(0, 0) != rag.None {
		t.Error("Load aliased caller matrix")
	}
}

// The DDU must agree with software PDDA and with the cycle oracle.
func TestDDUMatchesPDDAAndOracle(t *testing.T) {
	rng := det.New(31)
	for i := 0; i < 400; i++ {
		m := 1 + rng.Intn(8)
		n := 1 + rng.Intn(8)
		g := rag.Random(rng, m, n, 0.7, 0.3)
		u, err := New(Config{Procs: n, Resources: m})
		if err != nil {
			t.Fatal(err)
		}
		if err := u.Load(g.Matrix()); err != nil {
			t.Fatal(err)
		}
		hw := u.Detect()
		sw, _ := pdda.DetectGraph(g)
		if hw.Deadlock != sw || hw.Deadlock != g.HasCycle() {
			t.Fatalf("case %d: DDU=%v PDDA=%v oracle=%v\n%s",
				i, hw.Deadlock, sw, g.HasCycle(), g.Matrix())
		}
	}
}

// Hardware iteration count must equal the software reduction step count.
func TestIterationAgreement(t *testing.T) {
	rng := det.New(8)
	for i := 0; i < 200; i++ {
		g := rag.Random(rng, 1+rng.Intn(8), 1+rng.Intn(8), 0.8, 0.35)
		m, n := g.Size()
		u, _ := New(Config{Procs: n, Resources: m})
		if err := u.Load(g.Matrix()); err != nil {
			t.Fatal(err)
		}
		hw := u.Detect()
		mx := g.Matrix()
		k, _ := pdda.Reduce(mx)
		if hw.Iterations != k {
			t.Fatalf("case %d: hw iterations %d != sw %d", i, hw.Iterations, k)
		}
	}
}

func TestHardwareSteps(t *testing.T) {
	cases := []struct{ k, want int }{
		{0, 2}, {1, 2}, {2, 2}, {3, 2}, {4, 4}, {5, 6}, {7, 10}, {10, 16}, {50, 96},
	}
	for _, c := range cases {
		if got := HardwareSteps(c.k); got != c.want {
			t.Errorf("HardwareSteps(%d) = %d, want %d", c.k, got, c.want)
		}
	}
}

// Table 1's worst-case iteration column, reproduced from the adversarial
// chain RAG through the hardware step counter.
func TestTable1WorstCaseSteps(t *testing.T) {
	cases := []struct {
		procs, res int
		want       int
	}{
		{2, 3, 2},
		{5, 5, 6},
		{7, 7, 10},
		{10, 10, 16},
		{50, 50, 96},
	}
	for _, c := range cases {
		if got := WorstCaseSteps(Config{Procs: c.procs, Resources: c.res}); got != c.want {
			t.Errorf("WorstCaseSteps(%dx%d) = %d, want %d", c.procs, c.res, got, c.want)
		}
	}
}

func TestCumulativeInstrumentation(t *testing.T) {
	u := mustNew(t, 5, 5)
	u.Detect()
	u.Detect()
	if u.Detections != 2 {
		t.Errorf("Detections = %d, want 2", u.Detections)
	}
	if u.TotalSteps < 4 {
		t.Errorf("TotalSteps = %d, want >= 4", u.TotalSteps)
	}
}

func TestGenerateEmitsWellFormedVerilog(t *testing.T) {
	f, err := Generate(Config{Procs: 5, Resources: 5})
	if err != nil {
		t.Fatal(err)
	}
	if problems := f.Check(nil); len(problems) != 0 {
		t.Errorf("generated Verilog problems: %v", problems)
	}
	text := f.Emit()
	for _, want := range []string{"module ddu_cell", "module ddu_5x5", "deadlock", "c_4_4", "row_tau", "col_phi"} {
		if !strings.Contains(text, want) {
			t.Errorf("generated Verilog missing %q", want)
		}
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	if _, err := Generate(Config{}); err == nil {
		t.Error("Generate accepted invalid config")
	}
}

// Lines-of-Verilog must grow roughly as m*n + constant, matching the Table 1
// shape (one instance line per matrix cell).
func TestVerilogLineGrowth(t *testing.T) {
	lines := map[int]int{}
	for _, sz := range []int{2, 5, 10} {
		f, err := Generate(Config{Procs: sz, Resources: sz})
		if err != nil {
			t.Fatal(err)
		}
		lines[sz] = verilog.CountLines(f.Emit())
	}
	// Fixed overhead estimated from the 2x2 config.
	overhead := lines[2] - 2*2 - 2*2*2
	for _, sz := range []int{5, 10} {
		approx := sz*sz + 2*sz*2 + overhead
		got := lines[sz]
		if got < approx-10 || got > approx+10 {
			t.Errorf("lines(%dx%d) = %d, expected ~%d (m*n growth)", sz, sz, got, approx)
		}
	}
}

func TestSynthesizeTable1Shape(t *testing.T) {
	prevArea, prevLines := 0, 0
	for _, c := range []Config{
		{Procs: 2, Resources: 3},
		{Procs: 5, Resources: 5},
		{Procs: 7, Resources: 7},
		{Procs: 10, Resources: 10},
		{Procs: 50, Resources: 50},
	} {
		sr, err := Synthesize(c)
		if err != nil {
			t.Fatal(err)
		}
		if sr.AreaGates <= prevArea {
			t.Errorf("area not monotone: %dx%d -> %d after %d", c.Procs, c.Resources, sr.AreaGates, prevArea)
		}
		if sr.VerilogLines <= prevLines {
			t.Errorf("lines not monotone: %dx%d -> %d after %d", c.Procs, c.Resources, sr.VerilogLines, prevLines)
		}
		prevArea, prevLines = sr.AreaGates, sr.VerilogLines
	}
}

func TestSynthesizeSmallUnitIsSmall(t *testing.T) {
	sr, err := Synthesize(Config{Procs: 2, Resources: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 186 gates for 2x3. Control-block-dominated; ours must be in the
	// same few-hundred-gate regime.
	if sr.AreaGates < 50 || sr.AreaGates > 600 {
		t.Errorf("2x3 DDU area = %d gates, outside plausible range", sr.AreaGates)
	}
}

func TestSynthesize50x50Quadratic(t *testing.T) {
	small, err := Synthesize(Config{Procs: 5, Resources: 5})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Synthesize(Config{Procs: 50, Resources: 50})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(big.AreaGates) / float64(small.AreaGates)
	// 100x the cells; allowing the fixed control overhead of the small unit,
	// the ratio must be far above linear (10x) and at most ~100x.
	if ratio < 15 || ratio > 120 {
		t.Errorf("area ratio 50x50 / 5x5 = %.1f, want quadratic-ish growth", ratio)
	}
}

func TestNetlistHasSequentialState(t *testing.T) {
	nl := Netlist(Config{Procs: 5, Resources: 5})
	if nl.FlipFlops() == 0 {
		t.Error("DDU netlist has no sequential cells")
	}
}

// randSource is shared by the VCD dump test.
func randSource() *det.RNG { return det.New(55) }
