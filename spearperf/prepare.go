package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

	"spear/internal/cfg"
	"spear/internal/cpu"
	"spear/internal/emu"
	"spear/internal/harness"
	"spear/internal/isa"
	"spear/internal/profile"
	"spear/internal/prog"
	"spear/internal/slicer"
	"spear/internal/spearcc"
	"spear/internal/workloads"
)

// refRunLimit is harness.Prepare's instruction cap for the reference run.
const refRunLimit = 50_000_000

// prepStats is what one kernel's preparation did, for per-layer ratios.
type prepStats struct {
	profiled uint64 // instructions per profile pass (two passes run)
	refInstr uint64 // instructions of the reference run
	dloads   int
	pthreads int
	skipped  int
}

// tracedPrepare is harness.Prepare with every layer call made here, in
// the production order, under its own span: build the train input, draw
// the CFG, profile, slice, attach, build the reference input, and run
// the annotated binary on it.
func tracedPrepare(tr *tracer, parent int, k workloads.Kernel, opts harness.Options) (*harness.Prepared, prepStats, error) {
	var st prepStats
	id := tr.begin("harness.prepare", k.Name, parent, false)
	defer tr.finish(id)

	var train, ref *prog.Program
	var err error
	tr.leaf("workloads.build", k.Name, id, func() { train, err = k.Build(workloads.Train) })
	if err != nil {
		return nil, st, err
	}
	if err := train.Validate(); err != nil {
		return nil, st, fmt.Errorf("spearcc: invalid input binary: %w", err)
	}
	var g *cfg.Graph
	tr.leaf("cfg.build", k.Name, id, func() { g, err = cfg.Build(train) })
	if err != nil {
		return nil, st, fmt.Errorf("spearcc: cfg: %w", err)
	}
	var res *profile.Result
	tr.leaf("profile.run", k.Name, id, func() { res, err = profile.Run(train, g, opts.Compiler.Profile) })
	if err != nil {
		return nil, st, fmt.Errorf("spearcc: profile: %w", err)
	}
	var pthreads []prog.PThread
	var reps []slicer.Report
	tr.leaf("slicer.build", k.Name, id, func() { pthreads, reps = slicer.Build(train, g, res, opts.Compiler.Slice) })
	var annotated *prog.Program
	tr.leaf("spearcc.attach", k.Name, id, func() { annotated = spearcc.Attach(train, pthreads) })
	if err := annotated.Validate(); err != nil {
		return nil, st, fmt.Errorf("spearcc: attach produced invalid binary: %w", err)
	}
	tr.leaf("workloads.build", k.Name, id, func() { ref, err = k.Build(workloads.Ref) })
	if err != nil {
		return nil, st, err
	}
	annotated.Data = ref.Data
	annotated.Name = ref.Name
	if err := annotated.Validate(); err != nil {
		return nil, st, fmt.Errorf("harness: %s: %w", k.Name, err)
	}
	m := emu.New(annotated)
	tr.leaf("emu.ref", k.Name, id, func() { err = m.Run(refRunLimit) })
	if err != nil {
		return nil, st, fmt.Errorf("harness: %s ref run: %w", k.Name, err)
	}

	st = prepStats{profiled: res.InstrCount, refInstr: m.Count, dloads: len(res.DLoads), pthreads: len(pthreads)}
	for _, r := range reps {
		if r.Skipped {
			st.skipped++
		}
	}
	rep := &spearcc.Report{Profiled: res.InstrCount, DLoads: res.DLoads, SliceInfo: reps, Graph: g, ProfileData: res}
	return &harness.Prepared{Kernel: k, Ref: annotated, Report: rep, RefInstr: m.Count}, st, nil
}

// pool runs f(0..n-1) on width goroutines, handing out indexes in order.
func pool(width, n int, f func(i int)) {
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(width, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// tracedSweep is the sweep of harness.NewSuiteContext + SweepReportContext
// with the layer calls made here: prepare every kernel on the pool, then
// simulate every (kernel, config) pair in kernel-major order on the pool,
// then assemble the report exactly as the harness does.
func tracedSweep(ctx context.Context, tr *tracer, root int, names []string, opts harness.Options) (*harness.Report, []*harness.Prepared, []prepStats, error) {
	kernels := make([]workloads.Kernel, len(names))
	for i, n := range names {
		k, ok := workloads.ByName(n)
		if !ok {
			return nil, nil, nil, fmt.Errorf("unknown kernel %q", n)
		}
		kernels[i] = *k
	}
	prepared := make([]*harness.Prepared, len(kernels))
	stats := make([]prepStats, len(kernels))
	errs := make([]error, len(kernels))
	pool(opts.Parallel, len(kernels), func(i int) {
		prepared[i], stats[i], errs[i] = tracedPrepare(tr, root, kernels[i], opts)
	})
	for i, err := range errs {
		if err != nil {
			return nil, nil, nil, fmt.Errorf("prepare %s: %w", names[i], err)
		}
	}

	cfgs := harness.StandardConfigs()
	rep := &harness.Report{Schema: harness.ReportSchema, Experiment: "sweep", Kernels: names}
	for _, c := range cfgs {
		rep.Machines = append(rep.Machines, c.Name)
	}
	rep.Rows = make([]harness.ReportRow, len(kernels)*len(cfgs))
	pool(opts.Parallel, len(rep.Rows), func(i int) {
		p, c := prepared[i/len(cfgs)], cfgs[i%len(cfgs)]
		row := harness.ReportRow{Kernel: p.Kernel.Name, Config: c.Name}
		var res *cpu.Result
		var err error
		tr.leafDetail("cpu.run", p.Kernel.Name, c.Name, root, func() { res, err = cpu.RunContext(ctx, p.Ref, c) })
		if err != nil {
			row.Error = fmt.Sprintf("harness: %s on %s: %v", p.Kernel.Name, c.Name, err)
		} else {
			row.Result = res
		}
		rep.Rows[i] = row
	})
	return rep, prepared, stats, nil
}

// programDigest fingerprints what the SPEAR compiler produced for a
// kernel: the text and the attached p-thread table.
func programDigest(p *prog.Program) string {
	b, err := json.Marshal(struct {
		Text     []isa.Instruction
		PThreads []prog.PThread
	}{p.Text, p.PThreads})
	if err != nil {
		panic(err) // plain structs of numbers always marshal
	}
	return digest(b)
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}
