package ddu

import (
	"fmt"

	"deltartos/internal/pdda"
	"deltartos/internal/rag"
)

// Fault injection.  The paper motivates the DDU with reliability ("improve
// the reliability and correctness of applications running on an MPSoC");
// a safety argument for a hardware checker must also consider faults in the
// checker itself.  This file models stuck-at faults on matrix cells and the
// periodic software golden-check an integration would run against PDDA.

// Fault pins one matrix cell to a fixed value regardless of what the
// command interface writes (a stuck-at fault in the cell's latches).
type Fault struct {
	Row   int // resource s
	Col   int // process t
	Stuck rag.Cell
}

// InjectFault adds a stuck-at fault to the unit.  Multiple faults may be
// active; later faults on the same cell override earlier ones.
func (u *Unit) InjectFault(s, t int, stuck rag.Cell) error {
	if s < 0 || s >= u.cfg.Resources || t < 0 || t >= u.cfg.Procs {
		return fmt.Errorf("ddu: fault cell (%d,%d) out of %dx%d unit",
			s, t, u.cfg.Resources, u.cfg.Procs)
	}
	if !stuck.Valid() {
		return fmt.Errorf("ddu: invalid stuck value %d", stuck)
	}
	u.faults = append(u.faults, Fault{Row: s, Col: t, Stuck: stuck})
	return nil
}

// ClearFaults removes all injected faults.
func (u *Unit) ClearFaults() { u.faults = nil }

// Faults returns the active fault list.
func (u *Unit) Faults() []Fault { return append([]Fault(nil), u.faults...) }

// faulted returns the matrix the faulty unit actually evaluates: a
// unit-owned copy of the true matrix with every stuck cell overridden, so
// the true matrix (which CrossCheck's software side reads) stays intact.
func (u *Unit) faulted() *rag.Matrix {
	if u.stuck == nil {
		u.stuck = rag.NewMatrix(u.mx.M, u.mx.N)
	}
	u.stuck.CopyFrom(u.mx)
	for _, f := range u.faults {
		u.stuck.Set(f.Row, f.Col, f.Stuck)
	}
	return u.stuck
}

// CrossCheckResult reports one golden-check run.
type CrossCheckResult struct {
	Hardware bool // the (possibly faulty) DDU's answer
	Software bool // PDDA's answer on the same state
	Mismatch bool
}

// CrossCheck runs the unit AND software PDDA on the unit's current state
// and compares answers — the periodic lockstep check an integration uses to
// detect a faulty DDU and fall back to software detection.  The software
// side reads the TRUE matrix (kernel memory), so a stuck DDU cell shows up
// as a mismatch whenever it changes the verdict.
func (u *Unit) CrossCheck() CrossCheckResult {
	hw := u.Detect()
	sw, _ := pdda.Detect(u.mx)
	return CrossCheckResult{
		Hardware: hw.Deadlock,
		Software: sw,
		Mismatch: hw.Deadlock != sw,
	}
}
