package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"deltartos/internal/campaign"
	"deltartos/internal/fuzz"
)

// sweepSeeds is the seed count per contention point of one measured sweep:
// 8 points x 512 = 4096 scenarios, plus the 16 lint round-trips every
// sweep pays regardless of size.  About one round-trip in 300 takes 1-2 s
// where the rest take milliseconds; a run holds about ten sweeps, so the
// median sweep of a run meets none of those.
//
// checkSeeds is the per-point size of the sweep the check re-runs.
const (
	sweepSeeds = 512
	checkSeeds = 64
)

// fuzzSweep runs fuzz.RunSweep(fuzz.DefaultSweep(sweepSeeds, base), 2) once
// per job, each job on its own base seed drawn from the workload seed.
type fuzzSweep struct {
	seed uint64

	problems []string
	counts   pointCounts // traced totals over every point
}

// pointCounts is the per-point tally the benchmark keeps when it replays a
// sweep through the per-seed public calls; it mirrors the report fields the
// replay can recompute.
type pointCounts struct {
	Seeds, Completed, Deadlocked, Wedged, FuseExceeded, StaticCycles int
	OracleChecked, LintChecked, BankerChecked, BankerDecisions       int
	Mismatches                                                       int
}

func (c *pointCounts) add(o pointCounts) {
	c.Seeds += o.Seeds
	c.Completed += o.Completed
	c.Deadlocked += o.Deadlocked
	c.Wedged += o.Wedged
	c.FuseExceeded += o.FuseExceeded
	c.StaticCycles += o.StaticCycles
	c.OracleChecked += o.OracleChecked
	c.LintChecked += o.LintChecked
	c.BankerChecked += o.BankerChecked
	c.BankerDecisions += o.BankerDecisions
	c.Mismatches += o.Mismatches
}

func newFuzzSweep(seed uint64) *workload {
	f := &fuzzSweep{seed: seed}
	return &workload{
		// Set-up warms the pool and the lint loader on one fixed small
		// sweep, the same for every workload seed.
		setup: func() error {
			_, err := fuzz.RunSweep(fuzz.DefaultSweep(8, 1), workers)
			return err
		},
		job:    f.job,
		check:  f.check,
		layers: f.layers,
	}
}

// base is job i's first seed.
func (f *fuzzSweep) base(i int) uint64 {
	return mix(f.seed, uint64(i+1)) >> 16
}

func (f *fuzzSweep) job(i int, tr *tracer) (jobResult, error) {
	sw := fuzz.DefaultSweep(sweepSeeds, f.base(i))
	if tr != nil {
		counts, err := replaySweep(sw, tr)
		var total pointCounts
		for _, c := range counts {
			total.add(c)
		}
		f.counts.add(total)
		return jobResult{ops: total.Seeds, failed: total.Mismatches}, err
	}
	rep, err := fuzz.RunSweep(sw, workers)
	if rep == nil {
		return jobResult{ops: len(sw.Points) * sw.Seeds, failed: len(sw.Points) * sw.Seeds}, err
	}
	r := jobResult{}
	for _, p := range rep.Points {
		r.ops += p.Seeds
		r.failed += p.Mismatches
	}
	f.problems = append(f.problems, checkSweepReport(rep, sw)...)
	if err != nil {
		f.problems = append(f.problems, err.Error())
	}
	return r, nil
}

// check runs a small sweep from job 0's base seed on the pool and on one
// worker, whose reports must be byte-identical, and replays it through the
// per-seed public calls, whose tallies must match the report point by
// point.
func (f *fuzzSweep) check() []string {
	problems := append([]string(nil), f.problems...)
	sw := fuzz.DefaultSweep(checkSeeds, f.base(0))
	var digests [2]string
	var rep *fuzz.Report
	for k, n := range []int{workers, 1} {
		var err error
		if rep, err = fuzz.RunSweep(sw, n); err != nil {
			return append(problems, fmt.Sprintf("check sweep on %d workers: %v", n, err))
		}
		if digests[k], err = reportDigest(rep); err != nil {
			return append(problems, err.Error())
		}
	}
	if digests[0] != digests[1] {
		problems = append(problems, fmt.Sprintf("report digest on %d workers %s, on 1 worker %s", workers, digests[0], digests[1]))
	}
	problems = append(problems, checkSweepReport(rep, sw)...)
	counts, err := replaySweep(sw, nil)
	if err != nil {
		return append(problems, err.Error())
	}
	return append(problems, compareReplay(rep, counts)...)
}

func (f *fuzzSweep) layers(tr *tracer, _, traced loopStats, m metrics) {
	lt := tr.layers()
	m.set("fuzz.generate_s", lt.self["fuzz.generate"])
	m.set("fuzz.derive_s", lt.self["fuzz.derive"])
	m.set("fuzz.exec_s", lt.self["fuzz.exec"])
	m.set("fuzz.banker_diff_s", lt.self["fuzz.banker_diff"])
	m.set("fuzz.lint_check_s", lt.self["fuzz.lint_check"])
	m.set("fuzz.other_s", lt.self["fuzz.seed"]+lt.self["fuzz.chunk"])
	m.set("fuzz.banker_decisions", float64(f.counts.BankerDecisions))
	m.set("fuzz.oracle_checked", float64(f.counts.OracleChecked))
	m.set("fuzz.lint_checked", float64(f.counts.LintChecked))
	m.set("fuzz.deadlocked", float64(f.counts.Deadlocked))
	m.set("fuzz.mismatches", float64(f.counts.Mismatches))
	busy := 0.0
	for _, d := range lt.durs["fuzz.chunk"] {
		busy += d
	}
	m.set("campaign.busy_frac", busy/(workers*traced.elapsed))
}

// replaySweep runs sw through the same per-seed calls RunSweep makes —
// Generate, Derive, ExecWith, BankerDiff and, for the first LintSample seeds
// of a point, LintCheck — on the same chunks of the same pool, and tallies
// each point.  With a tracer every call is a span under its seed's span.
func replaySweep(sw fuzz.Sweep, tr *tracer) ([]pointCounts, error) {
	chunk := sw.ChunkSize
	if chunk <= 0 {
		chunk = 1024 // RunSweep's default
	}
	type job struct{ point, lo, n int }
	var jobs []job
	for p := range sw.Points {
		for lo := 0; lo < sw.Seeds; lo += chunk {
			jobs = append(jobs, job{p, lo, min(chunk, sw.Seeds-lo)})
		}
	}
	chunks := make([]pointCounts, len(jobs))
	err := campaign.Run(len(jobs), workers, func(j int) error {
		b := tr.buf()
		p := jobs[j].point
		base := sw.BaseSeed + uint64(p)*uint64(sw.Seeds)
		pt := b.start("fuzz.chunk", 0, int64(base)+int64(jobs[j].lo))
		defer b.stop(pt)
		c := &chunks[j]
		var es fuzz.ExecScratch
		for k := jobs[j].lo; k < jobs[j].lo+jobs[j].n; k++ {
			seed := base + uint64(k)
			key := int64(seed)
			sp := b.start("fuzz.seed", pt, key)
			s := b.start("fuzz.generate", sp, key)
			sc, err := fuzz.Generate(seed, sw.Points[p].Gen)
			b.stop(s)
			if err != nil {
				return err
			}
			s = b.start("fuzz.derive", sp, key)
			st := fuzz.Derive(sc)
			b.stop(s)
			deep := sw.OracleEvery > 0 && k%sw.OracleEvery == 0
			s = b.start("fuzz.exec", sp, key)
			res := fuzz.ExecWith(&es, sc, st, deep)
			b.stop(s)
			s = b.start("fuzz.banker_diff", sp, key)
			bd := fuzz.BankerDiff(sc, st)
			b.stop(s)
			c.Seeds++
			switch res.Outcome {
			case fuzz.Completed:
				c.Completed++
			case fuzz.Deadlocked:
				c.Deadlocked++
			case fuzz.Wedged:
				c.Wedged++
			case fuzz.FuseExceeded:
				c.FuseExceeded++
			}
			if st.HasCycle() {
				c.StaticCycles++
			}
			if deep {
				c.OracleChecked++
			}
			if res.MismatchAt != "" {
				c.Mismatches++
			}
			c.BankerChecked++
			c.BankerDecisions += bd.Decisions
			if bd.Mismatch != "" {
				c.Mismatches++
			}
			if k < sw.LintSample {
				s = b.start("fuzz.lint_check", sp, key)
				mismatch, err := fuzz.LintCheck(sc, st)
				b.stop(s)
				if err != nil {
					return err
				}
				c.LintChecked++
				if mismatch != "" {
					c.Mismatches++
				}
			}
			b.stop(sp)
		}
		return nil
	})
	counts := make([]pointCounts, len(sw.Points))
	for j, c := range chunks {
		counts[jobs[j].point].add(c)
	}
	return counts, err
}

// checkSweepReport checks a report's own accounting: every seed ran, was
// Banker-replayed and classified, the deep-oracle and lint samples ran at
// their configured cadence, and no invariant broke.
func checkSweepReport(rep *fuzz.Report, sw fuzz.Sweep) []string {
	if len(rep.Points) != len(sw.Points) {
		return []string{fmt.Sprintf("sweep %d: %d points, want %d", sw.BaseSeed, len(rep.Points), len(sw.Points))}
	}
	var problems []string
	bad := func(p fuzz.PointReport, what string, got, want int) {
		problems = append(problems, fmt.Sprintf("sweep %d point %s: %s %d, want %d", sw.BaseSeed, p.Label, what, got, want))
	}
	for _, p := range rep.Points {
		if p.Seeds != sw.Seeds {
			bad(p, "seeds", p.Seeds, sw.Seeds)
		}
		if n := p.Completed + p.Deadlocked + p.Wedged + p.FuseExceeded; n != p.Seeds {
			bad(p, "classified seeds", n, p.Seeds)
		}
		if p.BankerChecked != p.Seeds {
			bad(p, "banker_checked", p.BankerChecked, p.Seeds)
		}
		if want := (sw.Seeds + sw.OracleEvery - 1) / sw.OracleEvery; p.OracleChecked != want {
			bad(p, "oracle_checked", p.OracleChecked, want)
		}
		if want := min(sw.LintSample, sw.Seeds); p.LintChecked != want {
			bad(p, "lint_checked", p.LintChecked, want)
		}
		if p.Mismatches != 0 || p.FirstMismatch != "" {
			problems = append(problems, fmt.Sprintf("sweep %d point %s: %d invariant mismatches, first %q",
				sw.BaseSeed, p.Label, p.Mismatches, p.FirstMismatch))
		}
	}
	return problems
}

// compareReplay checks a report against the per-seed replay of its sweep.
func compareReplay(rep *fuzz.Report, counts []pointCounts) []string {
	if len(rep.Points) != len(counts) {
		return []string{fmt.Sprintf("replay has %d points, report %d", len(counts), len(rep.Points))}
	}
	var problems []string
	for i, p := range rep.Points {
		got := pointCounts{
			Seeds: p.Seeds, Completed: p.Completed, Deadlocked: p.Deadlocked, Wedged: p.Wedged,
			FuseExceeded: p.FuseExceeded, StaticCycles: p.StaticCycles, OracleChecked: p.OracleChecked,
			LintChecked: p.LintChecked, BankerChecked: p.BankerChecked, BankerDecisions: p.BankerDecisions,
			Mismatches: p.Mismatches,
		}
		if got != counts[i] {
			problems = append(problems, fmt.Sprintf("point %s: report %+v, per-seed replay %+v", p.Label, got, counts[i]))
		}
	}
	return problems
}

func reportDigest(rep *fuzz.Report) (string, error) {
	data, err := rep.JSON()
	if err != nil {
		return "", fmt.Errorf("encode sweep report: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// mix is SplitMix64 over (seed, stream): the benchmark's one way to turn
// the workload seed into per-job inputs.
func mix(seed, stream uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}
