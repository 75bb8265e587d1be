// The Banker differential: every fuzz seed's traffic is replayed through
// both Banker engines — the word-parallel bitset Banker and the per-cell
// RefBanker — and every grant/refuse decision is compared.  The replay is a
// deterministic round-robin over the scenario's task programs with claims
// taken from the static derivation, so both engines see byte-identical
// request/release streams.

package fuzz

import (
	"fmt"

	"deltartos/internal/daa"
)

// BankerDiffResult summarizes one seed's replay.
type BankerDiffResult struct {
	// Decisions is the number of grant/refuse decisions compared.
	Decisions int
	// Mismatch describes the first engine divergence ("" = none).
	Mismatch string
}

// BankerDiff replays sc's traffic through the bitset Banker and the
// per-cell RefBanker under st's claim sets and compares every decision.
//
// Replay semantics (identical for both engines, chosen so the stream stays
// well-formed under refusals): an acquire of a resource the task already
// holds is skipped; a refused acquire is dropped (Banker's has no pending
// queue — the later matching release is then skipped too); a crash halts
// the task at its crash point, stranding what it holds; releases of
// resources not held (lost-release doubles, refused acquires) are skipped.
func BankerDiff(sc *Scenario, st *Static) BankerDiffResult {
	var es ExecScratch
	return BankerDiffWith(&es, sc, st)
}

// BankerDiffWith is BankerDiff with the replay's per-task tables in es, so
// a chunk of seeds reuses them.
func BankerDiffWith(es *ExecScratch, sc *Scenario, st *Static) BankerDiffResult {
	cfg := sc.Cfg
	var out BankerDiffResult

	fast, err := daa.NewBanker(cfg.Tasks, cfg.Resources)
	if err != nil {
		out.Mismatch = "banker-diff: " + err.Error()
		return out
	}
	ref, err := daa.NewRefBanker(cfg.Tasks, cfg.Resources)
	if err != nil {
		out.Mismatch = "banker-diff: " + err.Error()
		return out
	}
	for t := 0; t < cfg.Tasks; t++ {
		claims := st.Claims(t)
		if err := fast.DeclareClaim(t, claims...); err != nil {
			out.Mismatch = "banker-diff: " + err.Error()
			return out
		}
		if err := ref.DeclareClaim(t, claims...); err != nil {
			out.Mismatch = "banker-diff: " + err.Error()
			return out
		}
	}

	es.pc = zeroed(es.pc, cfg.Tasks)
	es.held = zeroed(es.held, cfg.Tasks*cfg.Resources)
	pc, held := es.pc, es.held
	mismatch := func(format string, args ...any) {
		if out.Mismatch == "" {
			out.Mismatch = fmt.Sprintf("seed %d: banker-diff: ", sc.Seed) + fmt.Sprintf(format, args...)
		}
	}

	running := cfg.Tasks
	for running > 0 {
		progress := false
		for t := 0; t < cfg.Tasks; t++ {
			prog := &sc.Progs[t]
			if pc[t] < 0 {
				continue
			}
			if pc[t] == prog.CrashAt || pc[t] >= len(prog.Ops) {
				pc[t] = -1
				running--
				progress = true
				continue
			}
			op := prog.Ops[pc[t]]
			pc[t]++
			progress = true
			holds := &held[t*cfg.Resources+op.Res]
			if op.Acquire {
				if *holds {
					continue
				}
				fastGrant, fastErr := fast.Request(t, op.Res)
				refGrant, refErr := ref.Request(t, op.Res)
				out.Decisions++
				if (fastErr == nil) != (refErr == nil) {
					mismatch("p%d req q%d: error divergence: bitset=%v ref=%v", t, op.Res, fastErr, refErr)
					return out
				}
				if fastGrant != refGrant {
					mismatch("p%d req q%d: bitset granted=%v ref granted=%v", t, op.Res, fastGrant, refGrant)
					return out
				}
				if fastGrant {
					*holds = true
				}
			} else if *holds {
				if err := fast.Release(t, op.Res); err != nil {
					mismatch("bitset release p%d q%d: %v", t, op.Res, err)
					return out
				}
				if err := ref.Release(t, op.Res); err != nil {
					mismatch("ref release p%d q%d: %v", t, op.Res, err)
					return out
				}
				*holds = false
			}
		}
		if !progress {
			break
		}
	}
	if fast.Refusals != ref.Refusals {
		mismatch("refusal totals diverge: bitset=%d ref=%d", fast.Refusals, ref.Refusals)
	}
	return out
}
