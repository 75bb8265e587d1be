package main

import (
	"fmt"
	"runtime"
	"time"

	"deltartos/internal/daa"
	"deltartos/internal/ddu"
	"deltartos/internal/pdda"
	"deltartos/internal/rag"
)

// The detect-stream system: one RAG of streamProcs processes over
// streamRes resources, driven by a seeded stream of request/release
// intents.  A job is streamEvents events through the detection engines
// followed by streamEvents intents through the avoidance engines; state
// carries over from job to job.
const (
	streamProcs  = 64
	streamRes    = 256
	streamEvents = 1000
	maxHold      = 4  // a process holding this many resources releases next
	claimSize    = 12 // resources each process claims for the Banker
)

// draw is one generated intent: which process acts, whether it leans to
// a release (action < 45 of 100), and which resource it names.
type draw struct {
	proc, action, res uint32
}

// genDraws is job j's input: n draws from the workload seed.  The engines
// only ever see these numbers, interpreted against their own state.
func genDraws(seed uint64, j, n int) []draw {
	rng := rng{state: mix(seed, uint64(j+1)<<20|0xd7)}
	out := make([]draw, n)
	for i := range out {
		out[i] = draw{proc: uint32(rng.next()), action: uint32(rng.next() % 100), res: uint32(rng.next())}
	}
	return out
}

// digest is a running FNV-1a-style hash of the decisions an engine makes,
// cheap enough to update on every event.
type digest uint64

const digestOffset digest = 0xcbf29ce484222325

func (d *digest) add(tag byte, a, b, c int) {
	for _, x := range [4]uint64{uint64(tag), uint64(a), uint64(b), uint64(c)} {
		*d = (*d ^ digest(x)) * 0x100000001b3
	}
}

// rng is SplitMix64.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// detectEngines is the detection side: the tracked RAG checked by PDDA and
// the HasCycle oracle, and the DDU's own matrix kept in step with it.
type detectEngines struct {
	g       *rag.Graph
	u       *ddu.Unit
	sc      pdda.Scratch
	held    [][]int // resources each process holds, in grant order
	blocked []bool
	// refs additionally checks every verdict against the per-cell
	// reference engines (the check's replay).
	refs bool

	digest     digest
	events     int
	counts     streamCounts
	mismatches []string
}

func newDetectEngines(refs bool) (*detectEngines, error) {
	u, err := ddu.New(ddu.Config{Procs: streamProcs, Resources: streamRes})
	if err != nil {
		return nil, err
	}
	return &detectEngines{
		g: rag.NewGraph(streamRes, streamProcs), u: u, refs: refs,
		held: make([][]int, streamProcs), blocked: make([]bool, streamProcs),
		digest: digestOffset,
	}, nil
}

// step applies one draw.  A runnable process either releases a resource
// it holds or requests one; a request for a busy resource blocks and runs
// every detector, and a detected deadlock is resolved by aborting the
// requester.
func (e *detectEngines) step(d draw, b *spanBuf, ev spanID, key int64) error {
	e.events++
	runnable := make([]int, 0, streamProcs)
	for p, blk := range e.blocked {
		if !blk {
			runnable = append(runnable, p)
		}
	}
	p := runnable[int(d.proc)%len(runnable)]
	if n := len(e.held[p]); n > 0 && (d.action < 45 || n >= maxHold) {
		q := e.held[p][int(d.res)%n]
		e.digest.add('r', p, q, 0)
		return e.release(p, q, b, ev, key)
	}
	q := int(d.res % streamRes)
	for e.g.Holder(q) == p {
		q = (q + 1) % streamRes
	}
	s := b.start("rag.mutate", ev, key)
	if e.g.Holder(q) == -1 {
		if err := e.g.SetGrant(q, p); err != nil {
			return err
		}
		e.u.SetGrant(q, p)
		b.stop(s)
		e.held[p] = append(e.held[p], q)
		e.digest.add('g', p, q, 0)
		return nil
	}
	e.g.AddRequest(q, p)
	e.u.SetRequest(q, p)
	b.stop(s)
	e.blocked[p] = true

	s = b.start("pdda.detect", ev, key)
	dead, st := pdda.DetectGraphInto(&e.sc, e.g)
	b.stop(s)
	s = b.start("ddu.detect", ev, key)
	res := e.u.Detect()
	b.stop(s)
	s = b.start("rag.has_cycle", ev, key)
	cyc := e.g.HasCycle()
	b.stop(s)
	e.counts.iterations += st.Iterations
	e.counts.dduSteps += res.Steps
	if dead != res.Deadlock || dead != cyc {
		e.mismatches = append(e.mismatches, fmt.Sprintf("event %d: pdda %v, ddu %v, HasCycle %v", e.events, dead, res.Deadlock, cyc))
	}
	if e.refs && (dead != pdda.DetectGraphCells(e.g) || dead != e.g.HasCycleRef()) {
		e.mismatches = append(e.mismatches, fmt.Sprintf("event %d: per-cell references disagree with pdda %v", e.events, dead))
	}
	if !dead {
		e.digest.add('w', p, q, 0)
		return nil
	}
	e.digest.add('d', p, q, 0)
	e.counts.deadlocks++
	s = b.start("rag.mutate", ev, key)
	e.g.RemoveRequest(q, p)
	e.u.ClearCell(q, p)
	b.stop(s)
	e.blocked[p] = false
	for len(e.held[p]) > 0 {
		if err := e.release(p, e.held[p][0], b, ev, key); err != nil {
			return err
		}
	}
	return nil
}

// release frees q held by p and hands it to its lowest-numbered waiter.
func (e *detectEngines) release(p, q int, b *spanBuf, ev spanID, key int64) error {
	s := b.start("rag.mutate", ev, key)
	defer b.stop(s)
	if err := e.g.Release(q, p); err != nil {
		return err
	}
	e.u.ClearCell(q, p)
	e.held[p] = remove(e.held[p], q)
	if w := e.g.Requesters(q); len(w) > 0 {
		if err := e.g.SetGrant(q, w[0]); err != nil {
			return err
		}
		e.u.SetGrant(q, w[0])
		e.held[w[0]] = append(e.held[w[0]], q)
		e.blocked[w[0]] = false
	}
	return nil
}

func remove(xs []int, x int) []int {
	for i, v := range xs {
		if v == x {
			return append(xs[:i], xs[i+1:]...)
		}
	}
	return xs
}

// avoidEngines is the avoidance side: the DAA avoider and the Banker take
// the same intents, each against its own state.  Processes claim
// claimSize resources each; an intent names one of the process's claims.
type avoidEngines struct {
	a       *daa.Avoider
	bk      *daa.Banker
	ref     *daa.RefBanker // the check's replay compares every Banker decision
	claims  [][]int
	pending []int // resource p waits for in the avoider, or -1

	digest   digest
	intents  int
	counts   streamCounts
	problems []string
}

func newAvoidEngines(seed uint64, withRef bool) (*avoidEngines, error) {
	a, err := daa.New(daa.Config{Procs: streamProcs, Resources: streamRes})
	if err != nil {
		return nil, err
	}
	bk, err := daa.NewBanker(streamProcs, streamRes)
	if err != nil {
		return nil, err
	}
	e := &avoidEngines{a: a, bk: bk, claims: make([][]int, streamProcs), pending: make([]int, streamProcs),
		digest: digestOffset}
	if withRef {
		if e.ref, err = daa.NewRefBanker(streamProcs, streamRes); err != nil {
			return nil, err
		}
	}
	r := rng{state: mix(seed, 0xc1a1)}
	for p := range e.claims {
		a.SetPriority(p, daa.Priority(p%8))
		e.pending[p] = -1
		seen := map[int]bool{}
		for len(e.claims[p]) < claimSize {
			q := int(r.next() % streamRes)
			if !seen[q] {
				seen[q] = true
				e.claims[p] = append(e.claims[p], q)
			}
		}
		if err := bk.DeclareClaim(p, e.claims[p]...); err != nil {
			return nil, err
		}
		if e.ref != nil {
			if err := e.ref.DeclareClaim(p, e.claims[p]...); err != nil {
				return nil, err
			}
		}
	}
	return e, nil
}

// step applies one intent to both engines.  In the avoider a held resource
// is released, a waiting process withdraws its request, and otherwise the
// process requests, obeying the answer: an asked owner releases at once, a
// process told to give up releases everything.  The Banker releases a
// held resource or requests, and a refused request is dropped.
func (e *avoidEngines) step(d draw, b *spanBuf, ev spanID, key int64) error {
	e.intents++
	p := int(d.proc % streamProcs)
	q := e.claims[p][int(d.res)%claimSize]
	g := e.a.Graph()
	switch {
	case e.a.Holder(q) == p:
		s := b.start("daa.avoid_release", ev, key)
		r, err := e.a.Release(p, q)
		b.stop(s)
		if err != nil {
			return err
		}
		e.digest.add('R', p, q, r.GrantedTo)
	case e.pending[p] >= 0 && g.Requesting(e.pending[p], p):
		if err := e.a.CancelRequest(p, e.pending[p]); err != nil {
			return err
		}
		e.digest.add('C', p, e.pending[p], 0)
		e.pending[p] = -1
	default:
		e.pending[p] = -1
		s := b.start("daa.avoid_request", ev, key)
		r, err := e.a.Request(p, q)
		b.stop(s)
		if err != nil {
			return err
		}
		e.counts.decisions[r.Decision]++
		if r.Livelock {
			e.counts.livelock++
		}
		e.digest.add('Q', p, q, int(r.Decision)<<16|(r.AskedProcess+1))
		switch r.Decision {
		case daa.Pending:
			e.pending[p] = q
		case daa.PendingOwnerAsked:
			e.pending[p] = q
			s := b.start("daa.avoid_release", ev, key)
			_, err = e.a.Release(r.AskedProcess, q)
			b.stop(s)
		case daa.GiveUpRequested:
			s := b.start("daa.avoid_release", ev, key)
			_, err = e.a.GiveUp(p)
			b.stop(s)
		}
		if err != nil {
			return err
		}
	}
	if e.ref != nil && e.a.Deadlocked() {
		e.problems = append(e.problems, fmt.Sprintf("intent %d: avoider reached a deadlock", e.intents))
	}

	if e.bk.Graph().Holder(q) == p {
		s := b.start("daa.banker_release", ev, key)
		err := e.bk.Release(p, q)
		b.stop(s)
		if err == nil && e.ref != nil {
			err = e.ref.Release(p, q)
		}
		e.digest.add('b', p, q, 0)
		return err
	}
	s := b.start("daa.banker_request", ev, key)
	granted, err := e.bk.Request(p, q)
	b.stop(s)
	if err != nil {
		return err
	}
	if e.ref != nil {
		refGranted, err := e.ref.Request(p, q)
		if err != nil {
			return err
		}
		if refGranted != granted {
			e.problems = append(e.problems, fmt.Sprintf("intent %d: Banker granted=%v, RefBanker %v", e.intents, granted, refGranted))
		}
	}
	if !granted {
		e.counts.refusals++
		e.digest.add('N', p, q, 0)
		return nil
	}
	e.digest.add('B', p, q, 0)
	return nil
}

// detectStream is the detect-stream workload.
type detectStream struct {
	seed  uint64
	det   *detectEngines
	avoid *avoidEngines

	digest0           [2]digest // job 0's decision digests (detect, avoid)
	detectNs, avoidNs int64     // untraced phase time
	detectN, avoidN   int
	traced            bool
	before            streamCounts // counts at the start of the traced half
}

// streamCounts are the engines' decision counts.
type streamCounts struct {
	iterations, deadlocks, dduSteps int
	decisions                       [4]int // by daa.Decision
	livelock, refusals              int
}

func (c streamCounts) plus(o streamCounts) streamCounts {
	c.iterations += o.iterations
	c.deadlocks += o.deadlocks
	c.dduSteps += o.dduSteps
	for k := range c.decisions {
		c.decisions[k] += o.decisions[k]
	}
	c.livelock += o.livelock
	c.refusals += o.refusals
	return c
}

func newDetectStream(seed uint64) *workload {
	d := &detectStream{seed: seed}
	return &workload{setup: d.setup, job: d.job, check: d.check, layers: d.layers}
}

// setup builds fresh engines, declares the Banker claims and runs job -1's
// stream through them, so lazily sized scratch exists before timing.
func (d *detectStream) setup() error {
	var err error
	if d.det, err = newDetectEngines(false); err != nil {
		return err
	}
	if d.avoid, err = newAvoidEngines(d.seed, false); err != nil {
		return err
	}
	return runStream(d.det, d.avoid, genDraws(d.seed, -1, 2*streamEvents))
}

// runStream applies a job's draws untimed and untraced: the first half to
// the detection engines, the second to the avoidance engines.
func runStream(det *detectEngines, av *avoidEngines, draws []draw) error {
	for _, dr := range draws[:streamEvents] {
		if err := det.step(dr, nil, 0, 0); err != nil {
			return err
		}
	}
	for _, dr := range draws[streamEvents:] {
		if err := av.step(dr, nil, 0, 0); err != nil {
			return err
		}
	}
	return nil
}

func (d *detectStream) job(i int, tr *tracer) (jobResult, error) {
	if tr != nil && !d.traced {
		d.traced, d.before = true, d.det.counts.plus(d.avoid.counts)
	}
	b := tr.buf()
	draws := genDraws(d.seed, i, 2*streamEvents)
	bad := len(d.det.mismatches)
	t0 := time.Now()
	for k, dr := range draws[:streamEvents] {
		key := int64(i*streamEvents + k)
		s := b.start("detect.event", 0, key)
		err := d.det.step(dr, b, s, key)
		b.stop(s)
		if err != nil {
			return jobResult{ops: k + 1, failed: 1}, err
		}
	}
	t1 := time.Now()
	for k, dr := range draws[streamEvents:] {
		key := int64(i*streamEvents + k)
		s := b.start("avoid.intent", 0, key)
		err := d.avoid.step(dr, b, s, key)
		b.stop(s)
		if err != nil {
			return jobResult{ops: streamEvents + k + 1, failed: 1}, err
		}
	}
	if tr == nil {
		d.detectNs += int64(t1.Sub(t0))
		d.avoidNs += int64(time.Since(t1))
		d.detectN += streamEvents
		d.avoidN += streamEvents
	}
	if i == 0 {
		d.digest0 = [2]digest{d.det.digest, d.avoid.digest}
	}
	return jobResult{ops: 2 * streamEvents, failed: len(d.det.mismatches) - bad}, nil
}

// check replays set-up and job 0 on fresh engines that also run the
// per-cell references and the RefBanker: every verdict must agree, the
// avoider must never deadlock, and the decision digests must equal the
// measured run's.
func (d *detectStream) check() []string {
	problems := append([]string(nil), d.det.mismatches...)
	det, err := newDetectEngines(true)
	if err != nil {
		return append(problems, err.Error())
	}
	av, err := newAvoidEngines(d.seed, true)
	if err != nil {
		return append(problems, err.Error())
	}
	for j := -1; j <= 0; j++ {
		if err := runStream(det, av, genDraws(d.seed, j, 2*streamEvents)); err != nil {
			return append(problems, err.Error())
		}
	}
	problems = append(problems, det.mismatches...)
	problems = append(problems, av.problems...)
	return append(problems, compareDigests(d.digest0, [2]digest{det.digest, av.digest})...)
}

func compareDigests(run, replay [2]digest) []string {
	var problems []string
	for k, name := range []string{"detect", "avoid"} {
		if run[k] != replay[k] {
			problems = append(problems, fmt.Sprintf("%s decision digest %016x, replay %016x", name, run[k], replay[k]))
		}
	}
	return problems
}

func (d *detectStream) layers(tr *tracer, _, _ loopStats, m metrics) {
	lt := tr.layers()
	us := func(name string, q float64) float64 { return percentile(lt.durs[name], q) * 1e6 }
	m.set("detect.events_per_s", float64(d.detectN)/(float64(d.detectNs)/1e9))
	m.set("avoid.events_per_s", float64(d.avoidN)/(float64(d.avoidNs)/1e9))
	m.set("rag.mutate_ns_p50", us("rag.mutate", 0.5)*1e3)
	m.set("pdda.detect_us_p50", us("pdda.detect", 0.5))
	m.set("pdda.detect_us_p99", us("pdda.detect", 0.99))
	m.set("ddu.detect_us_p50", us("ddu.detect", 0.5))
	m.set("ddu.detect_us_p99", us("ddu.detect", 0.99))
	m.set("daa.avoid_request_us_p50", us("daa.avoid_request", 0.5))
	m.set("daa.avoid_request_us_p99", us("daa.avoid_request", 0.99))
	m.set("daa.avoid_release_us_p50", us("daa.avoid_release", 0.5))
	m.set("daa.banker_request_us_p50", us("daa.banker_request", 0.5))
	m.set("daa.banker_request_us_p99", us("daa.banker_request", 0.99))

	now := d.det.counts.plus(d.avoid.counts)
	was := d.before
	m.set("pdda.iterations", float64(now.iterations-was.iterations))
	m.set("pdda.deadlocks", float64(now.deadlocks-was.deadlocks))
	m.set("ddu.steps", float64(now.dduSteps-was.dduSteps))
	m.set("ddu.detect_allocs", dduAllocs(d.det.u))
	m.set("daa.granted", float64(now.decisions[daa.Granted]-was.decisions[daa.Granted]))
	m.set("daa.pending", float64(now.decisions[daa.Pending]-was.decisions[daa.Pending]))
	m.set("daa.owner_asked", float64(now.decisions[daa.PendingOwnerAsked]-was.decisions[daa.PendingOwnerAsked]))
	m.set("daa.give_up", float64(now.decisions[daa.GiveUpRequested]-was.decisions[daa.GiveUpRequested]))
	m.set("daa.livelock", float64(now.livelock-was.livelock))
	m.set("daa.banker_refusals", float64(now.refusals-was.refusals))
}

// dduAllocs is the heap allocations of one ddu.Unit.Detect on the unit's
// current matrix.
func dduAllocs(u *ddu.Unit) float64 {
	const n = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		u.Detect()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / n
}
