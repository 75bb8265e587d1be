// Command perfbench is the δ reproduction's benchmark driver.  It runs one
// named workload against the repository's public packages for a fixed
// time, checks the workload's outputs, and prints one JSON result line:
//
//	perfbench --workload fuzz-sweep --seed 7 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// tracing off: set-up time, and the CPU time and heap bytes one op costs.  With --trace 1 the run is split in two halves, an untraced
// one and a traced one that records a span around every public call, and
// the result carries the per-layer split plus the tracing overhead.
//
// Workloads (see BENCHMARK.json for why each exists):
//
//	fuzz-sweep     fuzz.RunSweep over the default contention curve
//	lint-module    framework.LoadModule + the ten passes on a frozen tree
//	chaos-soc      seeded fault-injection runs on rtos5, rtos6 and the ring
//	detect-stream  a seeded request/grant/release stream through the
//	               detection (PDDA, DDU) and avoidance (DAA, Banker) engines
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// workers is the pool width of the parallel workloads.  The benchmark
// pins it rather than following the host so that a run on a wider machine
// measures the same schedule.
const workers = 2

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 9

// jobResult is what one unit of work reports.
type jobResult struct {
	ops    int // operations attempted (seeds, packages, events)
	failed int // operations that failed
	// crashed is the operations that crashed as the workload's golden
	// output says they must (chaos-soc's known rtos5 crash seeds).  They
	// are not failures of the run; the per-layer failed_frac counts them.
	crashed int
}

// workload is one named benchmark workload.  job(i, nil) is the untraced
// measured path; job(i, tr) records spans around every public call.
type workload struct {
	setup func() error
	job   func(i int, tr *tracer) (jobResult, error)
	// check validates everything the jobs produced and returns one line per
	// problem; an empty slice means the outputs are correct.
	check func() []string
	// layers adds the per-layer metrics of the traced half.
	layers func(tr *tracer, untraced, traced loopStats, m metrics)
	// children, when set, is the heap bytes the workload's live child
	// processes have allocated and the CPU time they have used so far.
	children func() (allocs uint64, cpu time.Duration)
	// close, when set, stops what set-up started.
	close func()
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64) {
	unit, ok := perLayerUnits[name]
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	m[name] = metric{Value: v, Unit: unit}
}

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measurement time in seconds")
	traced := flag.Int("trace", 0, "1 = traced run reporting the per-layer split")
	out := flag.String("out", ".bench_build/perfbench", "directory for set-up files and span dumps")
	golden := flag.String("write-golden", "", "run the whole chaos-soc seed window and write its golden file here")
	flag.Parse()

	runtime.GOMAXPROCS(runtime.NumCPU())
	switch {
	case os.Getenv(childEnv) == "1":
		return serveChaos()
	case *golden != "":
		if err := writeGolden(*golden); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	dir, err := filepath.Abs(*out)
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	w, err := newWorkload(*name, *seed, dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	if w.close != nil {
		defer w.close()
	}

	setups := make([]float64, 0, setupReps)
	for k := 0; k < setupReps; k++ {
		t0 := time.Now()
		if err := w.setup(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: set-up: %v\n", err)
			return 1
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	var res result
	var problems []string
	if *traced == 0 {
		st, err := measure(w, *seconds, 0, nil)
		problems = append(problems, errLines(err)...)
		problems = append(problems, w.check()...)
		res.Attempted, res.Failed = st.ops, st.failed
		res.Metrics = metrics{
			"setup_s":         {median(setups), "s"},
			"cpu_us_per_op":   {median(st.cpuPerOp) * 1e6, "us"},
			"alloc_kb_per_op": {median(st.allocsPerOp) / 1024, "KiB"},
		}
	} else {
		half := *seconds / 2
		un, err := measure(w, half, 0, nil)
		problems = append(problems, errLines(err)...)
		tr := newTracer()
		tt, err := measure(w, half, un.jobs, tr)
		problems = append(problems, errLines(err)...)
		problems = append(problems, w.check()...)
		res.Attempted, res.Failed = un.ops+tt.ops, un.failed+tt.failed
		res.Metrics = metrics{}
		for name := range perLayerUnits {
			res.Metrics.set(name, 0)
		}
		crashed := un.crashed + tt.crashed
		res.Metrics.set("failed_frac", float64(res.Failed+crashed)/float64(max(res.Attempted, 1)))
		res.Metrics.set("trace.untraced_ops_per_s", float64(un.ops)/un.elapsed)
		res.Metrics.set("trace.traced_ops_per_s", float64(tt.ops)/tt.elapsed)
		unPerOp := un.elapsed / float64(max(un.ops, 1))
		trPerOp := tt.elapsed / float64(max(tt.ops, 1))
		res.Metrics.set("trace.overhead_frac", trPerOp/unPerOp-1)
		res.Metrics.set("trace.spans", float64(tr.len()))
		res.Metrics.set("rss_peak_mb", peakRSSMB())
		w.layers(tr, un, tt, res.Metrics)
		path := filepath.Join(dir, "spans-"+*name+".tsv.gz")
		if err := tr.write(path); err != nil {
			problems = append(problems, err.Error())
		}
	}
	res.Correct = len(problems) == 0
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func newWorkload(name string, seed uint64, dir string) (*workload, error) {
	switch name {
	case "fuzz-sweep":
		return newFuzzSweep(seed), nil
	case "lint-module":
		return newLintModule(dir), nil
	case "chaos-soc":
		return newChaosSoc(seed).workload(), nil
	case "detect-stream":
		return newDetectStream(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want fuzz-sweep, lint-module, chaos-soc or detect-stream)", name)
}

// loopStats summarises one measured loop.
type loopStats struct {
	jobs    int
	ops     int
	failed  int
	crashed int
	elapsed float64 // seconds from the first job's start to the last's end
	// per job: CPU seconds and heap bytes per op, children included
	cpuPerOp, allocsPerOp []float64
}

// measure runs w's jobs first, first+1, ... until seconds have passed (the
// job in flight finishes) and returns their totals.  An error stops the
// loop.
func measure(w *workload, seconds float64, first int, tr *tracer) (loopStats, error) {
	var st loopStats
	start := time.Now()
	limit := time.Duration(seconds * float64(time.Second))
	var err error
	for i := first; st.jobs == 0 || time.Since(start) < limit; i++ {
		cpu0, allocs0 := w.usage()
		var r jobResult
		r, err = w.job(i, tr)
		cpu1, allocs1 := w.usage()
		if n := float64(max(r.ops, 1)); err == nil {
			st.cpuPerOp = append(st.cpuPerOp, (cpu1-cpu0).Seconds()/n)
			st.allocsPerOp = append(st.allocsPerOp, float64(allocs1-allocs0)/n)
		}
		st.jobs++
		st.ops += r.ops
		st.failed += r.failed
		st.crashed += r.crashed
		if err != nil {
			err = fmt.Errorf("job %d: %w", i, err)
			break
		}
	}
	st.elapsed = time.Since(start).Seconds()
	return st, err
}

// usage is the CPU time (user and system) and the heap bytes the run has
// used so far: this process, its reaped children, and the live children
// the workload reports.
func (w *workload) usage() (time.Duration, uint64) {
	var self, kids syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &self)     // cannot fail with these arguments
	_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids) // likewise
	cpu := tvDur(self.Utime) + tvDur(self.Stime) + tvDur(kids.Utime) + tvDur(kids.Stime)
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	rtmetrics.Read(s)
	allocs := s[0].Value.Uint64()
	if w.children != nil {
		a, c := w.children()
		allocs += a
		cpu += c
	}
	return cpu, allocs
}

func tvDur(tv syscall.Timeval) time.Duration {
	return time.Duration(tv.Sec)*time.Second + time.Duration(tv.Usec)*time.Microsecond
}

func errLines(err error) []string {
	if err == nil {
		return nil
	}
	return []string{err.Error()}
}

func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank q-quantile of xs (0 for an empty slice).
func percentile(xs []float64, q float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// peakRSSMB is the larger of this process's and its reaped children's peak
// resident set, in MiB.
func peakRSSMB() float64 {
	var self, kids syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &self)     // cannot fail with these arguments
	_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids) // likewise
	return float64(max(self.Maxrss, kids.Maxrss)) / 1024
}
