// Command spearperf is the repository benchmark. It runs one named
// workload in a single process through the production code paths, checks
// every output, and prints the end-to-end metrics as one JSON object on
// the last line of standard output. With --trace 1 it also runs a traced
// operation of the same workload, in which the benchmark calls each
// layer's public function itself and records a span around every call,
// and prints the per-layer metrics instead.
//
// Run it from the repository root:
//
//	bash spearperf/run.sh --workload sweep|compile|serve --seed N --seconds S --trace 0|1
//
// The workloads, the per-workload meaning of every metric, the layer
// interaction map and the held-out seed are recorded in spearperf/map.json.
// The exit code is 0 when every output check passed, 1 when one failed
// (the result line then says "correct": false), and 2 when the benchmark
// could not run at all (no result line).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// maxWidth is the nproc the workloads are sized for: at most this many
// goroutines drive load (harness Parallel × sched Workers never exceeds it).
const maxWidth = 2

// setupReps is how many complete set-ups run before the first measured
// operation. The first is timed from process start; setup_s is the
// median of these and of the set-up before every later operation.
const setupReps = 11

type metricDef struct{ name, unit string }

// endToEnd lists the metrics a plain run prints, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"sim_mips", "MIPS"},
	{"req_ms.p50", "ms"},
	{"req_ms.p90", "ms"},
	{"req_per_s", "1/s"},
	{"alloc_mb", "MB"},
	{"max_rss_mb", "MB"},
}

// perLayer lists the metrics a traced run prints, in BENCHMARK.json order.
var perLayer = []metricDef{
	{"workloads.build_ms", "ms"},
	{"cfg.build_ms", "ms"},
	{"profile.run_ms", "ms"},
	{"profile.ns_per_instr", "ns"},
	{"profile.allocs_per_instr", "allocs/instr"},
	{"profile.dloads", "count"},
	{"slicer.build_ms", "ms"},
	{"slicer.pthreads", "count"},
	{"slicer.skipped", "count"},
	{"emu.ref_ms", "ms"},
	{"emu.ns_per_instr", "ns"},
	{"emu.allocs_per_instr", "allocs/instr"},
	{"cpu.run_ms", "ms"},
	{"cpu.ns_per_cycle", "ns"},
	{"cpu.ns_per_instr", "ns"},
	{"cpu.allocs_per_instr", "allocs/instr"},
	{"cpu.ns_per_cycle.baseline", "ns"},
	{"cpu.ns_per_cycle.spear128", "ns"},
	{"cpu.ns_per_cycle.spear256", "ns"},
	{"cpu.ns_per_cycle.spear128sf", "ns"},
	{"cpu.ns_per_cycle.spear256sf", "ns"},
	{"cpu.stage.fetch_frac", "frac"},
	{"cpu.stage.trigger_frac", "frac"},
	{"cpu.stage.dispatch_frac", "frac"},
	{"cpu.stage.extract_frac", "frac"},
	{"cpu.stage.issue_frac", "frac"},
	{"cpu.stage.complete_frac", "frac"},
	{"cpu.stage.commit_frac", "frac"},
	{"cpu.stage.book_frac", "frac"},
	{"cpu.cycles", "cycles"},
	{"cpu.ipc.baseline", "instr/cycle"},
	{"cpu.ipc.spear128", "instr/cycle"},
	{"cpu.pthread.dloads_per_trigger", "ratio"},
	{"cpu.pthread.killed_frac", "frac"},
	{"mem.l1d_miss_rate.baseline", "frac"},
	{"mem.l1d_miss_rate.spear128", "frac"},
	{"mem.prefetch.useful_frac", "frac"},
	{"bpred.hit_ratio", "frac"},
	{"model.norm_ipc128", "ratio"},
	{"model.norm_ipc256", "ratio"},
	{"harness.self_s", "s"},
	{"harness.report_write_ms", "ms"},
	{"harness.report_bytes", "bytes"},
	{"runtime.gc_cpu_frac", "frac"},
	{"runtime.gc_cycles", "count"},
	{"speard.requests", "count"},
	{"speard.submit_ms", "ms"},
	{"speard.report_get_ms", "ms"},
	{"sched.queue_wait_ms.p50", "ms"},
	{"sched.queue_wait_ms.p90", "ms"},
	{"sched.exec_ms.p50", "ms"},
	{"sched.dedup", "count"},
	{"sched.shed", "count"},
	{"journal.commits", "count"},
	{"journal.bytes", "bytes"},
	{"journal.write_ms", "ms"},
	{"journal.fsync_ms", "ms"},
	{"store.hit_frac", "frac"},
	{"store.open_ms", "ms"},
	{"store.entries", "count"},
	{"trace.overhead_frac", "frac"},
	{"trace.spans", "count"},
}

// settings are the command-line inputs plus the process-wide environment.
type settings struct {
	seed    int64
	seconds time.Duration
	traced  bool
	ref     reference // loaded again by every set-up
	width   int
	start   time.Time // process start: the first set-up is timed from here
}

// opResult is one measured operation: what it did, how long it took, and
// how many of its outputs failed their checks.
type opResult struct {
	wall      time.Duration
	latencies []time.Duration // one per request (see map.json for what a request is)
	instrs    uint64          // instructions the simulators retired
	attempted int
	failed    int
	problems  []string          // first few check failures, for stderr
	outputs   map[string]string // output digests, compared between runs
	res       resources
	layers    *layerData                 // filled by traced operations only
	kindLat   map[string][]time.Duration // serve: request latencies by kind of request
	kindHits  map[string]int             // serve: store hits by kind of request
}

func (r *opResult) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 8 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// opEnv is one operation's environment, made by a workload's set-up.
type opEnv interface {
	// run executes the operation: through the production path when tr is
	// nil, as the traced layer-by-layer pipeline otherwise.
	run(tr *tracer) opResult
	close()
}

// workload makes operation environments.
type workload interface {
	setup(s *settings) (opEnv, error)
}

func main() {
	start := time.Now()
	name := flag.String("workload", "", "sweep, compile or serve")
	seed := flag.Int64("seed", 1, "input seed (compile's generated kernels, serve's request stream)")
	seconds := flag.Int("seconds", 35, "how long to keep starting measured operations")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	flag.Parse()

	correct, err := run(start, *name, *seed, *seconds, *trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spearperf:", err)
		os.Exit(2)
	}
	if !correct {
		os.Exit(1)
	}
}

// run performs one benchmark run and prints its result line. It reports
// whether every output check passed.
func run(start time.Time, name string, seed int64, seconds, trace int) (bool, error) {
	var w workload
	switch name {
	case "sweep":
		w = sweepWorkload{}
	case "compile":
		w = compileWorkload{}
	case "serve":
		w = serveWorkload{}
	default:
		return false, fmt.Errorf("unknown workload %q (want sweep, compile or serve)", name)
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return false, fmt.Errorf("--seconds must be at least 1 and --trace 0 or 1")
	}
	s := &settings{
		seed: seed, seconds: time.Duration(seconds) * time.Second, traced: trace == 1,
		width: min(maxWidth, runtime.GOMAXPROCS(0)), start: start,
	}
	fmt.Printf("spearperf: workload %s, seed %d, %d closed-loop worker(s), GOMAXPROCS %d, NumCPU %d, %s\n",
		name, seed, s.width, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	fmt.Println("spearperf: simulated caches start empty on every run; host times are wall clock on this machine")

	res, err := measure(s, w)
	if err != nil {
		return false, err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return res.Correct, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// setUp is one complete set-up: the work between process start and the
// first measured operation. It loads the reference outputs the checks
// compare against and makes the workload's environment (the input list;
// for serve also the data directory and a started server).
func setUp(s *settings, w workload) (opEnv, error) {
	ref, err := loadReference()
	if err != nil {
		return nil, err
	}
	s.ref = ref
	return w.setup(s)
}

// measure runs the set-ups and operations of one benchmark run and turns
// them into the result line. Check failures go to standard error.
func measure(s *settings, w workload) (result, error) {
	var setups []time.Duration
	var ops []opResult
	var total opResult // attempted, failed and problems over the whole run
	record := func(r opResult) {
		total.attempted += r.attempted
		total.failed += r.failed
		total.problems = append(total.problems, r.problems...)
	}
	defer func() {
		for _, p := range total.problems {
			fmt.Fprintln(os.Stderr, "spearperf: check failed:", p)
		}
	}()
	newEnv := func(t0 time.Time) (opEnv, error) {
		env, err := setUp(s, w)
		setups = append(setups, time.Since(t0))
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		return env, nil
	}

	// The first set-up is timed from process start. It is repeated so
	// that setup_s is a median; only the last environment is used.
	t0 := s.start
	var env opEnv
	for i := 0; i < setupReps; i++ {
		if env != nil {
			env.close()
		}
		var err error
		if env, err = newEnv(t0); err != nil {
			return result{}, err
		}
		t0 = time.Now()
	}

	// Measured phase: start operations until the time budget is spent.
	phase := time.Now()
	for {
		r := env.run(nil)
		env.close()
		ops = append(ops, r)
		record(r)
		fmt.Printf("spearperf: operation %d: wall %.3f s, %d request(s), %d failed\n", len(ops), r.wall.Seconds(), len(r.latencies), r.failed)
		if time.Since(phase) >= s.seconds {
			break
		}
		var err error
		if env, err = newEnv(time.Now()); err != nil {
			return result{}, err
		}
	}

	m := map[string]float64{}
	if !s.traced {
		endToEndMetrics(m, ops, setups)
	} else {
		// The traced operation runs as wide as the untraced ones and gives
		// every time. The allocation pass, for workloads with per-layer
		// allocation metrics, repeats the operation on one worker so that
		// one layer call runs at a time, and gives only allocation counts.
		tr := newTracer(false)
		r, err := tracedOp(s, w, tr, ops[0], &total)
		if err != nil {
			return result{}, err
		}
		record(r)
		var allocs *tracer
		if r.layers != nil && len(r.layers.prep) > 0 {
			serial := *s
			serial.width = 1
			allocs = newTracer(true)
			ra, err := tracedOp(&serial, w, allocs, ops[0], &total)
			if err != nil {
				return result{}, err
			}
			record(ra)
		}
		if r.layers != nil && r.layers.prepared != nil {
			r.layers.stages = stagePass(s.width, r.layers.prepared)
		}
		layerMetrics(m, s, ops, r, tr, allocs)
		dir := filepath.Join(".bench_build", "spans")
		if err := tr.write(dir, fmt.Sprintf("spans-%d.jsonl", os.Getpid())); err != nil {
			fmt.Fprintln(os.Stderr, "spearperf: writing spans:", err)
		}
		if allocs != nil {
			if err := allocs.write(dir, fmt.Sprintf("spans-%d-allocs.jsonl", os.Getpid())); err != nil {
				fmt.Fprintln(os.Stderr, "spearperf: writing spans:", err)
			}
		}
	}

	res := result{Correct: total.failed == 0, Attempted: total.attempted, Failed: total.failed, Metrics: map[string]metricValue{}}
	defs := endToEnd
	if s.traced {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			if total.failed == 0 {
				return result{}, fmt.Errorf("metric %s was not measured", d.name)
			}
			// Failed operations give no samples; the result line still
			// reports the failure.
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res, nil
}

// tracedOp sets up and runs one traced operation with settings s and
// checks that its outputs equal those of the untraced operation ref.
// Output mismatches are recorded as failures in total.
func tracedOp(s *settings, w workload, tr *tracer, ref opResult, total *opResult) (opResult, error) {
	env, err := setUp(s, w)
	if err != nil {
		return opResult{}, fmt.Errorf("set-up: %w", err)
	}
	r := env.run(tr)
	env.close()
	pass := "traced operation"
	if tr.countAllocs {
		pass = "allocation pass"
	}
	fmt.Printf("spearperf: %s (%d worker(s)): wall %.3f s, %d request(s), %d failed\n", pass, s.width, r.wall.Seconds(), len(r.latencies), r.failed)
	// A traced pipeline must produce exactly the untraced outputs.
	for k, want := range ref.outputs {
		if got := r.outputs[k]; got != want {
			total.fail("%s: output %s differs from the untraced run (%.12s vs %.12s)", pass, k, got, want)
		}
	}
	if len(r.outputs) != len(ref.outputs) {
		total.fail("%s produced %d outputs, the untraced run %d", pass, len(r.outputs), len(ref.outputs))
	}
	return r, nil
}

// endToEndMetrics fills the end-to-end metrics from the untraced operations.
func endToEndMetrics(m map[string]float64, ops []opResult, setups []time.Duration) {
	var walls, allocs, mips []float64
	var lat []time.Duration
	var reqs int
	var total time.Duration
	for _, r := range ops {
		walls = append(walls, r.wall.Seconds())
		allocs = append(allocs, float64(r.res.allocBytes)/1e6)
		mips = append(mips, float64(r.instrs)/1e6/r.wall.Seconds())
		lat = append(lat, r.latencies...)
		reqs += len(r.latencies)
		total += r.wall
	}
	m["setup_s"] = median(durations(setups))
	m["wall_s"] = median(walls)
	m["sim_mips"] = median(mips)
	m["req_ms.p50"] = quantile(millis(lat), 0.5)
	m["req_ms.p90"] = quantile(millis(lat), 0.9)
	m["req_per_s"] = float64(reqs) / total.Seconds()
	m["alloc_mb"] = median(allocs)
	m["max_rss_mb"] = maxRSSMB()
	fmt.Printf("spearperf: %d operation(s), %d request(s) timed\n", len(ops), reqs)

	// The measured mix of request kinds, for the workloads that have kinds.
	kindLat, kindHits := map[string][]time.Duration{}, map[string]int{}
	for _, r := range ops {
		for k, l := range r.kindLat {
			kindLat[k] = append(kindLat[k], l...)
			kindHits[k] += r.kindHits[k]
		}
	}
	for _, k := range streamKinds {
		if l := kindLat[k]; len(l) > 0 {
			fmt.Printf("spearperf: %-7s requests: share %.3f, p50 %.2f ms, p90 %.2f ms, store hits %.3f\n", k,
				float64(len(l))/float64(reqs), quantile(millis(l), 0.5), quantile(millis(l), 0.9), float64(kindHits[k])/float64(len(l)))
		}
	}
}

// resources is a snapshot of the process's allocation and GC counters.
type resources struct {
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64
	totalCPU   float64
}

var resourceSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readResources() resources {
	ss := make([]metrics.Sample, len(resourceSamples))
	for i, n := range resourceSamples {
		ss[i].Name = n
	}
	metrics.Read(ss)
	return resources{
		allocBytes: ss[0].Value.Uint64(),
		gcCycles:   ss[1].Value.Uint64(),
		gcCPU:      ss[2].Value.Float64(),
		totalCPU:   ss[3].Value.Float64(),
	}
}

func (a resources) since(b resources) resources {
	return resources{
		allocBytes: a.allocBytes - b.allocBytes,
		gcCycles:   a.gcCycles - b.gcCycles,
		gcCPU:      a.gcCPU - b.gcCPU,
		totalCPU:   a.totalCPU - b.totalCPU,
	}
}

// maxRSSMB is the process's peak resident set in megabytes.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports kilobytes
}

func durations(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the closest ranks; an empty
// sample is NaN, which measure reports as an unmeasured metric.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
