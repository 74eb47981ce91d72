package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"spear/internal/cpu"
	"spear/internal/harness"
	"spear/internal/perf"
	"spear/internal/sched"
	"spear/internal/workloads"
)

// sweepKernels is the sweep workload's kernel list. mcf, art and pointer
// exercise p-thread extraction; field has no delinquent loads, so it and
// every baseline row bypass it. The reference report digest pins this list.
var sweepKernels = []string{"mcf", "art", "pointer", "gzip", "field", "fft"}

// sweepWorkload is the spearbench -json path in-process: kernel names to
// verified report bytes, preparation included, on the untimed production
// loop with no perf registry. Its inputs are fixed (the reference digest
// pins them), so the seed does not change them.
type sweepWorkload struct{}

type sweepEnv struct {
	s    *settings
	opts harness.Options
}

func (sweepWorkload) setup(s *settings) (opEnv, error) {
	for _, n := range sweepKernels {
		if _, ok := workloads.ByName(n); !ok {
			return nil, fmt.Errorf("unknown kernel %q", n)
		}
	}
	opts := harness.DefaultOptions() // spearbench's defaults: seed 1, no journal
	opts.Parallel = s.width
	opts.Kernels = append([]string(nil), sweepKernels...)
	return &sweepEnv{s: s, opts: opts}, nil
}

func (e *sweepEnv) close() {}

func (e *sweepEnv) run(tr *tracer) opResult {
	ctx := context.Background()
	r := opResult{attempted: len(sweepKernels)*len(harness.StandardConfigs()) + 1, outputs: map[string]string{}}
	before := readResources()
	start := time.Now()

	var rep *harness.Report
	var raw bytes.Buffer
	refInstr := map[string]uint64{}
	var prepared []*harness.Prepared
	var stats []prepStats
	var err error
	if tr == nil {
		var suite *harness.Suite
		suite, err = harness.NewSuiteContext(ctx, e.opts)
		if err == nil {
			for _, p := range suite.Prepared {
				refInstr[p.Kernel.Name] = p.RefInstr
			}
			rep, _, err = sched.Exec(ctx, sched.EngineForSuite(suite), sched.Request{Seed: e.opts.Seed, Experiment: "sweep"}, sched.JournalSpec{})
		}
		if err == nil {
			err = rep.WriteJSON(&raw)
		}
	} else {
		root := tr.begin("harness.sweep", "sweep", -1, false)
		rep, prepared, stats, err = tracedSweep(ctx, tr, root, e.opts.Kernels, e.opts)
		if err == nil {
			for i, n := range e.opts.Kernels {
				refInstr[n] = stats[i].refInstr
			}
			tr.leaf("harness.report_write", "sweep", root, func() { err = rep.WriteJSON(&raw) })
		}
		tr.finish(root)
	}
	if err != nil {
		r.failed = r.attempted
		r.problems = append(r.problems, err.Error())
		r.wall = time.Since(start)
		return r
	}

	// Output checks: the report bytes match the parent commit's, every
	// row is error-free, and every run retired the whole reference input.
	if d := digest(raw.Bytes()); d != e.s.ref.Sweep {
		r.fail("sweep report digest %s, reference %s", d, e.s.ref.Sweep)
	}
	if want := len(sweepKernels) * len(harness.StandardConfigs()); len(rep.Rows) != want || rep.Interrupted {
		r.fail("sweep report has %d rows (interrupted=%v), want %d", len(rep.Rows), rep.Interrupted, want)
	}
	for _, row := range rep.Rows {
		switch {
		case row.Result == nil:
			r.fail("%s on %s: error %q skipped %q", row.Kernel, row.Config, row.Error, row.Skipped)
		case row.Result.MainCommitted != refInstr[row.Kernel]:
			r.fail("%s on %s: committed %d, reference run %d", row.Kernel, row.Config, row.Result.MainCommitted, refInstr[row.Kernel])
		default:
			r.instrs += row.Result.MainCommitted
		}
	}
	r.wall = time.Since(start)
	r.res = readResources().since(before)
	r.latencies = []time.Duration{r.wall}
	r.outputs["report"] = digest(raw.Bytes())

	if tr != nil {
		r.layers = &layerData{prep: stats, report: rep, reportBytes: raw.Len(), glue: true, prepared: prepared}
	}
	if rows, err := harness.Fig6FromReport(rep); err == nil && tr == nil {
		n128, n256 := meanNorm(rows)
		fmt.Printf("spearperf: model.norm_ipc128 %.4f, model.norm_ipc256 %.4f (simulated time; the paper's suite means 1.127/1.201 are context only, the kernel set differs)\n", n128, n256)
	}
	return r
}

// meanNorm is the mean normalized IPC of SPEAR-128 and SPEAR-256.
func meanNorm(rows []harness.Fig6Row) (n128, n256 float64) {
	for _, row := range rows {
		n128 += row.Norm128
		n256 += row.Norm256
	}
	return n128 / float64(len(rows)), n256 / float64(len(rows))
}

// stagePass re-simulates every (kernel, config) pair with the perf
// registry attached, which switches the cycle loop to its timed twin, and
// sums the per-stage host time. The timed loop is slower, so only the
// stage shares are reported from it.
func stagePass(width int, prepared []*harness.Prepared) map[string]uint64 {
	cfgs := harness.StandardConfigs()
	timings := make([]*cpu.Timing, len(prepared)*len(cfgs))
	pool(width, len(timings), func(i int) {
		c := cfgs[i%len(cfgs)]
		c.Perf = perf.NewRegistry()
		if res, err := cpu.RunContext(context.Background(), prepared[i/len(cfgs)].Ref, c); err == nil {
			timings[i] = res.Timing
		}
	})
	stages := map[string]uint64{}
	for _, t := range timings {
		if t == nil {
			return nil
		}
		for _, st := range t.Stages {
			stages[st.Name] += st.Nanos
		}
	}
	return stages
}
