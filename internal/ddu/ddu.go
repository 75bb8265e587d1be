// Package ddu models the Deadlock Detection hardware Unit of Lee & Mooney
// (Sections 4.2.2–4.2.4): a matrix of 2-bit cells with row/column weight
// cells and a decide cell that evaluates the terminal reduction sequence in
// parallel, one reduction iteration per pair of hardware steps.
//
// Three views of the unit are provided:
//
//   - Unit: a functional, step-counted model used inside the MPSoC
//     simulation.  The DDU is PDDA in hardware (Equations 3–7), so the unit
//     reduces its matrix through PDDA's word-parallel engine
//     (pdda.DetectInto); only the step count (HardwareSteps) is
//     hardware-specific.  RTLModel is the independent structural oracle.
//   - Generate: a Verilog generator emitting the structural description the
//     δ framework's GUI tool would produce (one instance line per matrix
//     cell, as in the original generator, so the lines-of-Verilog metric is
//     comparable with Table 1).
//   - Synthesize: a gate-level area estimate in NAND2 equivalents.
package ddu

import (
	"fmt"

	"deltartos/internal/gates"
	"deltartos/internal/pdda"
	"deltartos/internal/rag"
	"deltartos/internal/verilog"
)

// Config sizes a DDU for n processes and m resources.
type Config struct {
	Procs     int // n
	Resources int // m
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Procs <= 0 || c.Resources <= 0 {
		return fmt.Errorf("ddu: invalid size %d processes x %d resources", c.Procs, c.Resources)
	}
	return nil
}

// Result is the outcome of one hardware detection run.
type Result struct {
	Deadlock   bool
	Iterations int // terminal reduction iterations k
	Steps      int // hardware clock steps consumed (see HardwareSteps)
}

// Unit is the functional DDU model.  The matrix is owned by the unit; the
// surrounding system (RTOS or DAU) writes cells through the command
// interface, mirroring how PEs program the real unit over the bus.
type Unit struct {
	cfg    Config
	mx     *rag.Matrix
	faults []Fault
	sc     pdda.Scratch
	stuck  *rag.Matrix // the faulted image Detect reads while faults are injected

	// cumulative instrumentation
	Detections int
	TotalSteps int
}

// New allocates a DDU.
func New(cfg Config) (*Unit, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Unit{cfg: cfg, mx: rag.NewMatrix(cfg.Resources, cfg.Procs)}, nil
}

// Config returns the unit's configuration.
func (u *Unit) Config() Config { return u.cfg }

// Matrix exposes the internal state matrix (read-only use by callers).
func (u *Unit) Matrix() *rag.Matrix { return u.mx }

// SetRequest asserts the request bit for (resource s, process t).
func (u *Unit) SetRequest(s, t int) { u.mx.Set(s, t, rag.Request) }

// SetGrant asserts the grant bit for (resource s, process t).
func (u *Unit) SetGrant(s, t int) { u.mx.Set(s, t, rag.Grant) }

// ClearCell clears cell (s,t).
func (u *Unit) ClearCell(s, t int) { u.mx.Set(s, t, rag.None) }

// Load replaces the whole matrix.  A matrix smaller than the unit embeds in
// the top-left corner with the spare cells zero (the paper's experiments
// run 4-process systems on a 5x5 DDU); a larger matrix is an error.  The
// cells are written into the unit's own matrix, so the caller keeps mx.
func (u *Unit) Load(mx *rag.Matrix) error {
	if mx.M > u.cfg.Resources || mx.N > u.cfg.Procs {
		return fmt.Errorf("ddu: matrix %dx%d does not fit unit %dx%d",
			mx.M, mx.N, u.cfg.Resources, u.cfg.Procs)
	}
	if mx.M == u.cfg.Resources && mx.N == u.cfg.Procs {
		u.mx.CopyFrom(mx)
		return nil
	}
	for s := 0; s < u.mx.M; s++ {
		u.mx.ClearRow(s)
	}
	for s := 0; s < mx.M; s++ {
		for t := 0; t < mx.N; t++ {
			if c := mx.Get(s, t); c != rag.None {
				u.mx.Set(s, t, c)
			}
		}
	}
	return nil
}

// Detect runs the hardware algorithm on a snapshot of the current matrix and
// returns the decision.  The internal matrix is not consumed: the real DDU
// also keeps its cells, re-evaluating weights combinationally.  The
// reduction is PDDA's (one iteration per parallel clear of all terminal rows
// and columns); the unit adds only the hardware step count.
func (u *Unit) Detect() Result {
	src := u.mx
	if len(u.faults) > 0 {
		src = u.faulted()
	}
	deadlock, stats := pdda.DetectInto(&u.sc, src)
	k := stats.Iterations
	res := Result{
		Deadlock:   deadlock,
		Iterations: k,
		Steps:      HardwareSteps(k),
	}
	u.Detections++
	u.TotalSteps += res.Steps
	return res
}

// HardwareSteps converts reduction iterations into DDU clock steps.  The unit
// pipelines weight evaluation with the clear phase: after the initial load,
// each iteration beyond the second costs two steps (weight settle + clear
// latch), while the first two iterations overlap with the load and the final
// termination check overlaps the decide cell.  This gives 2k−4 steps for k≥3
// with a floor of 2, the counting that reproduces the "worst case #
// iterations" column of Table 1 (k = min(m,n) on the adversarial chain RAG).
func HardwareSteps(k int) int {
	s := 2*k - 4
	if s < 2 {
		return 2
	}
	return s
}

// WorstCaseSteps returns the unit's worst-case step count, measured by
// driving the adversarial chain RAG (the configuration that maximizes the
// number of reduction iterations for the unit's size).
func WorstCaseSteps(cfg Config) int {
	g := rag.Chain(cfg.Resources, cfg.Procs)
	u, err := New(cfg)
	if err != nil {
		panic(err)
	}
	if err := u.Load(g.Matrix()); err != nil {
		panic(err)
	}
	return u.Detect().Steps
}

// SynthResult mirrors one row of Table 1.
type SynthResult struct {
	Procs        int
	Resources    int
	VerilogLines int
	AreaGates    int
	WorstSteps   int
}

// Synthesize generates the unit's Verilog and structural netlist and returns
// the synthesis summary.
func Synthesize(cfg Config) (SynthResult, error) {
	if err := cfg.Validate(); err != nil {
		return SynthResult{}, err
	}
	f, err := Generate(cfg)
	if err != nil {
		return SynthResult{}, err
	}
	nl := Netlist(cfg)
	return SynthResult{
		Procs:        cfg.Procs,
		Resources:    cfg.Resources,
		VerilogLines: verilog.CountLines(f.Emit()),
		AreaGates:    nl.AreaGates(),
		WorstSteps:   WorstCaseSteps(cfg),
	}, nil
}

// Netlist builds the structural gate netlist of the DDU:
//
//   - one matrix cell per (s,t): two set/clear SR latches (request and grant
//     bits, 2 NAND2 each) plus clear gating;
//   - one weight cell per row and per column: two wide-OR reduction trees
//     (request plane, grant plane), an XOR for τ and an AND for φ
//     (Equations 3–6);
//   - a decide cell: wide-OR over all τ (T_iter) and all φ (D_iter);
//   - a small control block: step counter, iteration FSM and bus interface
//     registers, which dominates the area of small configurations.
func Netlist(cfg Config) *gates.Netlist {
	m, n := cfg.Resources, cfg.Procs

	var cell gates.Netlist
	// Two cross-coupled set/clear NAND latch pairs; the parallel-clear input
	// folds into the reset leg of each latch, so the cell is 4 NAND2.
	cell.Add(gates.NAND2, 4)

	var rowWeight gates.Netlist
	rowWeight.AddWiredOR(n) // request plane BWO (dynamic wired-OR)
	rowWeight.AddWiredOR(n) // grant plane BWO
	rowWeight.Add(gates.XOR2, 1)
	rowWeight.Add(gates.AND2, 1)

	var colWeight gates.Netlist
	colWeight.AddWiredOR(m)
	colWeight.AddWiredOR(m)
	colWeight.Add(gates.XOR2, 1)
	colWeight.Add(gates.AND2, 1)

	var decide gates.Netlist
	decide.AddWiredOR(m + n) // T_iter over all τ
	decide.AddWiredOR(m + n) // D_iter over all φ
	decide.Add(gates.DFFR, 2)

	var control gates.Netlist
	control.Add(gates.DFF, 6)    // command register
	control.Add(gates.DFF, 4)    // status register
	control.Add(gates.DFFR, 6)   // step counter
	control.Add(gates.NAND2, 18) // FSM next-state logic
	control.Add(gates.INV, 8)
	control.AddDecoder(2)      // command decode
	control.Add(gates.AND2, 6) // handshake

	var top gates.Netlist
	top.AddSub("cell", &cell, m*n)
	top.AddSub("row_weight", &rowWeight, m)
	top.AddSub("col_weight", &colWeight, n)
	top.AddSub("decide", &decide, 1)
	top.AddSub("control", &control, 1)
	return &top
}
