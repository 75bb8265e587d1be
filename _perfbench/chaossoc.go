package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	rtmetrics "runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"deltartos/internal/experiments"
	"deltartos/internal/sim"
	"deltartos/internal/trace"
)

// The chaos-soc seed window: every system sweeps seeds [0, chaosWindow) of
// its default chaos configuration, one 64-seed block per system per job.
// Under DefaultChaosConfig some rtos5 seeds (110, 193, 218, 250, 253, ...)
// crash the process with a nil-pointer panic on a simulator goroutine, which
// no caller can recover; the workload therefore runs seeds in child
// processes and restarts a child that crashed.  Those crashes are the
// golden output of their seeds (any other crash, or one of them not
// happening, fails the check), so they are not failed ops of the run; the
// traced run's failed_frac counts them.
const (
	chaosWindow = 4096
	chaosBlock  = 64
	tableSeeds  = 16 // seeds per rendered campaign table in the check
	warmSeeds   = 16 // seeds per system the set-up runs
)

var chaosSystems = []string{"rtos5", "rtos6", "ring"}

// chaosGolden pins the window's expected output at the benchmark's commit:
// the seeds that crash, one digest per block of every system's per-seed
// reports (crash seeds left out), and the digests of rendered campaign
// tables over crash-free windows.  Regenerate with --write-golden.
type chaosGolden struct {
	Window  int                      `json:"window"`
	Block   int                      `json:"block"`
	Crashes map[string][]uint64      `json:"crashes"`
	Blocks  map[string][]string      `json:"blocks"`
	Tables  map[string][]tableDigest `json:"tables"`
}

type tableDigest struct {
	Base   uint64 `json:"base"`
	Digest string `json:"digest"`
}

//go:embed testdata/chaos-golden.json
var chaosGoldenJSON []byte

// childEnv set to 1 makes the process a chaos child instead of a driver;
// the test binary honours it too.
const childEnv = "PERFBENCH_CHAOS_CHILD"

// chaosTask is one request to a child: run a seed of a system, or render a
// campaign table of tableSeeds seeds starting at seed.
type chaosTask struct {
	Kind   string `json:"kind"` // "seed" or "table"
	System string `json:"system"`
	Seed   uint64 `json:"seed"`
	Traced bool   `json:"traced"`
}

// chaosReply is a child's answer to one task.
type chaosReply struct {
	Record   string            `json:"record"` // the run's JSON report, or the table digest
	End      uint64            `json:"end"`    // simulated cycle the run stopped at
	HostNs   int64             `json:"host_ns"`
	Allocs   uint64            `json:"allocs"` // heap bytes the child allocated for the task
	CPUNs    int64             `json:"cpu_ns"` // CPU time the child has used since it started
	Counters map[string]uint64 `json:"counters,omitempty"`
	Err      string            `json:"err,omitempty"`
}

// chaosOutcome is the parent's view of one task.
type chaosOutcome struct {
	task    chaosTask
	reply   chaosReply
	crashed bool
	rttNs   int64
}

// tracedCounters are the simulated counters a traced run reports, keyed by
// the trace registry name they are read from.
var tracedCounters = map[string]string{
	"sim.end_cycle":        "sim.end_cycles",
	"bus.transactions":     "bus.transactions",
	"bus.words":            "bus.words",
	"bus.stall_cycles":     "bus.stall_cycles",
	"bus.occupied_cycles":  "bus.occupied_cycles",
	"count.kernel.service": "kernel.service",
	"count.lock.acquire":   "lock.acquire",
	"count.lock.handoff":   "lock.handoff",
	"count.ipc.send":       "ipc.send",
	"count.ipc.recv":       "ipc.recv",
}

// serveChaos is the child side: one task per stdin line, one JSON reply per
// stdout line, until stdin closes.
func serveChaos() int {
	in := bufio.NewScanner(os.Stdin)
	out := json.NewEncoder(os.Stdout)
	for in.Scan() {
		var t chaosTask
		if err := json.Unmarshal(in.Bytes(), &t); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench child: %v\n", err)
			return 2
		}
		if err := out.Encode(runChaosTask(t)); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench child: %v\n", err)
			return 2
		}
	}
	return 0
}

func runChaosTask(t chaosTask) chaosReply {
	var rep chaosReply
	var s *sim.Sim
	var sess *trace.Session
	hooks := &sim.Hooks{OnNew: func(x *sim.Sim) { s = x }}
	if t.Traced {
		sess = trace.NewSession()
		hooks.OnNew = func(x *sim.Sim) { s, x.Rec = x, sess.NewRecorder(t.System) }
	}
	allocs := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	rtmetrics.Read(allocs)
	allocs0 := allocs[0].Value.Uint64()
	t0 := time.Now()
	var record any
	var err error
	switch {
	case t.Kind == "table":
		rep.Record, err = renderTable(t.System, t.Seed)
	case t.System == "ring":
		record, err = experiments.RunIPCChaosSeed(experiments.DefaultIPCChaosConfig(), t.Seed, hooks)
	default:
		cfg := experiments.DefaultChaosConfig()
		cfg.System = t.System
		record, err = experiments.RunChaosSeed(cfg, t.Seed, hooks)
	}
	rep.HostNs = int64(time.Since(t0))
	rtmetrics.Read(allocs)
	rep.Allocs = allocs[0].Value.Uint64() - allocs0
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail with these arguments
	rep.CPUNs = int64(tvDur(ru.Utime) + tvDur(ru.Stime))
	if err != nil {
		rep.Err = err.Error()
		return rep
	}
	if record != nil {
		data, err := json.Marshal(record)
		if err != nil {
			rep.Err = err.Error()
			return rep
		}
		rep.Record = string(data)
	}
	if s != nil {
		rep.End = s.Now()
	}
	if sess != nil {
		all := sess.CountersFrom(0)
		rep.Counters = map[string]uint64{}
		for from := range tracedCounters {
			rep.Counters[from] = all[from]
		}
	}
	return rep
}

// renderTable renders the campaign table of tableSeeds seeds from base, as
// deltasim -chaos / -ipc-chaos does, and returns its digest.
func renderTable(system string, base uint64) (string, error) {
	var r experiments.Result
	var err error
	if system == "ring" {
		cfg := experiments.DefaultIPCChaosConfig()
		cfg.Seeds, cfg.BaseSeed = tableSeeds, base
		r, _, err = experiments.RunIPCChaosCampaign(cfg, &experiments.RunCtx{Parallel: 1})
	} else {
		cfg := experiments.DefaultChaosConfig()
		cfg.System, cfg.Seeds, cfg.BaseSeed = system, tableSeeds, base
		r, _, err = experiments.RunChaosCampaign(cfg, &experiments.RunCtx{Parallel: 1})
	}
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256([]byte(experiments.Render(r)))
	return hex.EncodeToString(sum[:]), nil
}

// chaosChild is one child process serving tasks.
type chaosChild struct {
	cmd     *exec.Cmd
	stdin   io.WriteCloser
	stdout  *bufio.Scanner
	stderr  bytes.Buffer // read only once the child has exited
	exited  bool
	waitErr error
	cpuNs   int64 // CPU time as of the child's last reply
}

func startChild() (*chaosChild, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	c := &chaosChild{cmd: exec.Command(exe)}
	c.cmd.Stderr = &c.stderr
	c.cmd.Env = append(os.Environ(), childEnv+"=1", "GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()))
	if c.stdin, err = c.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	out, err := c.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	c.stdout = bufio.NewScanner(out)
	c.stdout.Buffer(make([]byte, 0, 64<<10), 4<<20)
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start chaos child: %w", err)
	}
	return c, nil
}

// errCrashed reports a child that died of a panic mid-task.
var errCrashed = errors.New("chaos child crashed")

func (c *chaosChild) do(t chaosTask) (chaosReply, error) {
	line, err := json.Marshal(t)
	if err != nil {
		return chaosReply{}, err
	}
	if _, err := c.stdin.Write(append(line, '\n')); err == nil && c.stdout.Scan() {
		var r chaosReply
		if err := json.Unmarshal(c.stdout.Bytes(), &r); err != nil {
			return r, fmt.Errorf("chaos child reply: %w", err)
		}
		c.cpuNs = r.CPUNs
		if r.Err != "" {
			return r, fmt.Errorf("%s %s seed %d: %s", t.Kind, t.System, t.Seed, r.Err)
		}
		return r, nil
	}
	werr := c.stop()
	if strings.Contains(c.stderr.String(), "panic:") {
		return chaosReply{}, errCrashed
	}
	return chaosReply{}, fmt.Errorf("chaos child died on %s %s seed %d (%v): %s", t.Kind, t.System, t.Seed, werr, c.stderr.String())
}

// stop closes the child's stdin and waits for it to exit; stopping an
// exited child returns the same result again.
func (c *chaosChild) stop() error {
	if !c.exited {
		c.stdin.Close()
		c.waitErr, c.exited = c.cmd.Wait(), true
	}
	return c.waitErr
}

// chaosPool is the two-worker pool of child processes.
type chaosPool struct {
	children [workers]*chaosChild
}

func (p *chaosPool) start() error {
	for i := range p.children {
		c, err := startChild()
		if err != nil {
			p.stop()
			return err
		}
		p.children[i] = c
	}
	return nil
}

func (p *chaosPool) stop() {
	for i, c := range p.children {
		if c != nil {
			_ = c.stop() // a child that already died has nothing left to report
			p.children[i] = nil
		}
	}
}

// cpu is the CPU time the live children had used as of their last replies;
// a child that has exited is counted in this process's RUSAGE_CHILDREN
// instead.  Call it only while no run is in flight.
func (p *chaosPool) cpu() time.Duration {
	var ns int64
	for _, c := range p.children {
		if c != nil && !c.exited {
			ns += c.cpuNs
		}
	}
	return time.Duration(ns)
}

// run executes tasks on the pool, restarting a child after each crash, and
// returns the outcomes in task order.
func (p *chaosPool) run(tasks []chaosTask) ([]chaosOutcome, error) {
	outs := make([]chaosOutcome, len(tasks))
	next := make(chan int, len(tasks)) // sized to the sends: filled and closed before the workers start
	for i := range tasks {
		next <- i
	}
	close(next)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range p.children {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range next {
				t0 := time.Now()
				r, err := p.children[w].do(tasks[i])
				outs[i] = chaosOutcome{task: tasks[i], reply: r, rttNs: int64(time.Since(t0))}
				if errors.Is(err, errCrashed) {
					outs[i].crashed = true
					p.children[w], err = startChild()
				}
				if err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return outs, errors.Join(errs...)
}

// chaosSoc is the chaos-soc workload.
type chaosSoc struct {
	seed   uint64
	golden chaosGolden
	pool   chaosPool

	problems   []string
	tracedFrom int // index of the first traced job, -1 before it

	// untraced per-system totals
	seeds  map[string]int
	rttNs  map[string]int64
	endCyc uint64
	allocs uint64 // heap bytes the children allocated
	// the first traced job's block: host time inside the children and the
	// simulated counters
	hostNs   int64
	counters map[string]float64
}

func newChaosSoc(seed uint64) *chaosSoc {
	return &chaosSoc{seed: seed, tracedFrom: -1, seeds: map[string]int{}, rttNs: map[string]int64{}, counters: map[string]float64{}}
}

func (c *chaosSoc) workload() *workload {
	return &workload{setup: c.setup, job: c.job, check: c.check, layers: c.layers,
		children: func() (uint64, time.Duration) { return c.allocs, c.pool.cpu() }, close: c.pool.stop}
}

// setup parses the golden file, starts the children and warms them on
// the first warmSeeds seeds of every system (none of which crash).
func (c *chaosSoc) setup() error {
	c.pool.stop()
	c.golden = chaosGolden{}
	if err := json.Unmarshal(chaosGoldenJSON, &c.golden); err != nil {
		return fmt.Errorf("chaos golden: %w", err)
	}
	if c.golden.Window != chaosWindow || c.golden.Block != chaosBlock {
		return fmt.Errorf("chaos golden covers %d/%d, want %d/%d", c.golden.Window, c.golden.Block, chaosWindow, chaosBlock)
	}
	if err := c.pool.start(); err != nil {
		return err
	}
	var warm []chaosTask
	for s := uint64(0); s < warmSeeds; s++ {
		for _, sys := range chaosSystems {
			warm = append(warm, chaosTask{Kind: "seed", System: sys, Seed: s})
		}
	}
	_, err := c.pool.run(warm)
	return err
}

// block is job i's block.  Traced jobs restart the rotation, so the first
// traced job covers the same block for a given seed every run.
func (c *chaosSoc) block(i int) int {
	start := int(c.seed % (chaosWindow / chaosBlock))
	if c.tracedFrom >= 0 {
		i -= c.tracedFrom
	}
	return (start + i) % (chaosWindow / chaosBlock)
}

func (c *chaosSoc) job(i int, tr *tracer) (jobResult, error) {
	if tr != nil && c.tracedFrom < 0 {
		c.tracedFrom = i
	}
	blk := c.block(i)
	tasks := blockTasks(blk, tr != nil)
	b := tr.buf()
	js := b.start("chaos.block", 0, int64(blk))
	outs, err := c.pool.run(tasks)
	b.stop(js)
	r := jobResult{ops: len(tasks)}
	for _, o := range outs {
		if o.crashed {
			r.crashed++
		}
	}
	if err != nil {
		return r, err
	}
	c.problems = append(c.problems, c.golden.checkBlock(blk, outs)...)
	for _, o := range outs {
		if o.crashed {
			continue
		}
		c.allocs += o.reply.Allocs
		if tr == nil {
			c.seeds[o.task.System]++
			c.rttNs[o.task.System] += o.rttNs
			c.endCyc += o.reply.End
			continue
		}
		// The child's run is a span of the block, placed at the end of the
		// pool's processing of its round.
		b.record("chaos."+o.task.System, js, int64(o.task.Seed), time.Duration(o.reply.HostNs))
		if i == c.tracedFrom {
			c.hostNs += o.reply.HostNs
			for from, to := range tracedCounters {
				c.counters[to] += float64(o.reply.Counters[from])
			}
			var rec struct{ Fired, Recoveries int } // the ring's report has no recoveries
			if err := json.Unmarshal([]byte(o.reply.Record), &rec); err != nil {
				return r, fmt.Errorf("%s seed %d report: %w", o.task.System, o.task.Seed, err)
			}
			c.counters["chaos.faults_fired"] += float64(rec.Fired)
			c.counters["chaos.recoveries"] += float64(rec.Recoveries)
		}
	}
	return r, nil
}

// blockTasks is every system's runs of the seeds of one block.
func blockTasks(blk int, traced bool) []chaosTask {
	var tasks []chaosTask
	for s := blk * chaosBlock; s < (blk+1)*chaosBlock; s++ {
		for _, sys := range chaosSystems {
			tasks = append(tasks, chaosTask{Kind: "seed", System: sys, Seed: uint64(s), Traced: traced})
		}
	}
	return tasks
}

// checkBlock compares one block's outcomes against the golden digests.
func (g *chaosGolden) checkBlock(blk int, outs []chaosOutcome) []string {
	var problems []string
	for _, sys := range chaosSystems {
		want := ""
		if blk < len(g.Blocks[sys]) {
			want = g.Blocks[sys][blk]
		}
		if got := g.blockDigest(sys, outs); got != want {
			problems = append(problems, fmt.Sprintf("%s block %d: digest %s, want %s", sys, blk, got, want))
		}
	}
	return problems
}

// blockDigest is the SHA-256 over one system's per-seed reports and end
// cycles in seed order.  A seed the golden file lists as crashing
// contributes only whether it crashed, and any other seed that crashed
// contributes its seed number, so a crash that does not happen and one
// that should not both change the digest.
func (g *chaosGolden) blockDigest(sys string, outs []chaosOutcome) string {
	crash := map[uint64]bool{}
	for _, s := range g.Crashes[sys] {
		crash[s] = true
	}
	h := sha256.New()
	for _, o := range outs {
		if o.task.System != sys {
			continue
		}
		if crash[o.task.Seed] {
			if !o.crashed {
				fmt.Fprintf(h, "%d survived\n", o.task.Seed)
			}
			continue
		}
		if o.crashed {
			fmt.Fprintf(h, "%d crashed\n", o.task.Seed)
			continue
		}
		fmt.Fprintf(h, "%d %d %s\n", o.task.Seed, o.reply.End, o.reply.Record)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// check renders one golden campaign table per system, picked by the seed.
func (c *chaosSoc) check() []string {
	problems := append([]string(nil), c.problems...)
	var tasks []chaosTask
	for _, sys := range chaosSystems {
		ts := c.golden.Tables[sys]
		if len(ts) == 0 {
			problems = append(problems, "no golden campaign table for "+sys)
			continue
		}
		tasks = append(tasks, chaosTask{Kind: "table", System: sys, Seed: ts[c.seed%uint64(len(ts))].Base})
	}
	outs, err := c.pool.run(tasks)
	if err != nil {
		return append(problems, err.Error())
	}
	for _, o := range outs {
		for _, t := range c.golden.Tables[o.task.System] {
			if t.Base == o.task.Seed && t.Digest != o.reply.Record {
				problems = append(problems, fmt.Sprintf("%s campaign table at %d: digest %s, want %s",
					o.task.System, t.Base, o.reply.Record, t.Digest))
			}
		}
	}
	return problems
}

func (c *chaosSoc) layers(_ *tracer, untraced, _ loopStats, m metrics) {
	for _, sys := range chaosSystems {
		if ns := c.rttNs[sys]; ns > 0 {
			m.set("chaos."+sys+"_seeds_per_s", workers*float64(c.seeds[sys])/(float64(ns)/1e9))
		}
	}
	m.set("sim.mcycles_per_s", float64(c.endCyc)/1e6/untraced.elapsed)
	for name, v := range c.counters {
		m.set(name, v)
	}
	if txn := c.counters["bus.transactions"]; txn > 0 {
		m.set("sim.host_ns_per_bus_txn", float64(c.hostNs)/txn)
	}
	ns, allocs := dispatchProbe()
	m.set("sim.dispatch_ns", ns)
	m.set("sim.dispatch_allocs", allocs)
}

// dispatchProbe times the simulator's event dispatch: one proc yielding
// through a long run of unit delays.
func dispatchProbe() (nsPerDispatch, allocsPerDispatch float64) {
	const n = 200_000
	s := sim.New()
	s.Spawn("spin", 0, func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Delay(1)
		}
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	s.Run()
	d := time.Since(t0)
	runtime.ReadMemStats(&after)
	return float64(d.Nanoseconds()) / n, float64(after.Mallocs-before.Mallocs) / n
}

// writeGolden runs the whole window and every candidate table and writes
// the golden file.
func writeGolden(path string) error {
	var pool chaosPool
	if err := pool.start(); err != nil {
		return err
	}
	defer pool.stop()
	g := chaosGolden{Window: chaosWindow, Block: chaosBlock,
		Crashes: map[string][]uint64{}, Blocks: map[string][]string{}, Tables: map[string][]tableDigest{}}
	for _, sys := range chaosSystems {
		g.Crashes[sys] = []uint64{}
	}
	for blk := 0; blk < chaosWindow/chaosBlock; blk++ {
		outs, err := pool.run(blockTasks(blk, false))
		if err != nil {
			return err
		}
		for _, o := range outs {
			if o.crashed {
				g.Crashes[o.task.System] = append(g.Crashes[o.task.System], o.task.Seed)
			}
		}
		for _, sys := range chaosSystems {
			g.Blocks[sys] = append(g.Blocks[sys], g.blockDigest(sys, outs))
		}
	}
	// Three crash-free table windows per system, spread over the window.
	var tasks []chaosTask
	for _, sys := range chaosSystems {
		for _, base := range []uint64{1, chaosWindow / 3, 2 * chaosWindow / 3} {
			for slices.ContainsFunc(g.Crashes[sys], func(s uint64) bool { return s >= base && s < base+tableSeeds }) {
				base++
			}
			tasks = append(tasks, chaosTask{Kind: "table", System: sys, Seed: base})
		}
	}
	outs, err := pool.run(tasks)
	if err != nil {
		return err
	}
	for _, o := range outs {
		g.Tables[o.task.System] = append(g.Tables[o.task.System], tableDigest{Base: o.task.Seed, Digest: o.reply.Record})
	}
	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
