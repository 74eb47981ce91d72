package main

import (
	"time"

	"spear/internal/harness"
	"spear/internal/mem"
)

// layerData is what a traced operation hands to layerMetrics besides its
// spans. A workload fills the parts its layers do work in; the rest stay
// zero, and so do the metrics of layers the workload does not reach.
type layerData struct {
	// sweep and compile
	prep []prepStats
	glue bool // harness.self_s applies: the untraced op ran the same pool

	// sweep
	report      *harness.Report
	reportBytes int
	prepared    []*harness.Prepared // the traced sweep's programs, for the stage pass
	stages      map[string]uint64   // cpu stage host ns from the stage pass

	// serve
	requests     int
	queueWait    []time.Duration
	exec         []time.Duration
	hits, gets   int
	storeEntries int
	counters     map[string]float64
}

var stageMetrics = []string{"fetch", "trigger", "dispatch", "extract", "issue", "complete", "commit", "book"}

var configMetrics = map[string]string{
	"baseline":     "cpu.ns_per_cycle.baseline",
	"SPEAR-128":    "cpu.ns_per_cycle.spear128",
	"SPEAR-256":    "cpu.ns_per_cycle.spear256",
	"SPEAR.sf-128": "cpu.ns_per_cycle.spear128sf",
	"SPEAR.sf-256": "cpu.ns_per_cycle.spear256sf",
}

// ratio is a/b, or 0 when the layer did no work (b == 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics fills the per-layer metrics from the traced operation r,
// its spans, the allocation pass's spans (nil when the workload has no
// allocation metrics), and the untraced operations ops of the same run.
func layerMetrics(m map[string]float64, s *settings, ops []opResult, r opResult, tr, allocTr *tracer) {
	self, _, busy := tr.layerTotals()
	allocs := map[string]float64{}
	if allocTr != nil {
		_, allocs, _ = allocTr.layerTotals()
	}
	L := r.layers
	if L == nil {
		L = &layerData{}
	}
	ms := func(names ...string) float64 {
		var ns int64
		for _, n := range names {
			ns += self[n]
		}
		return float64(ns) / 1e6
	}

	var profiled, refInstr float64
	var dloads, pthreads, skipped int
	for _, p := range L.prep {
		profiled += 2 * float64(p.profiled)
		refInstr += float64(p.refInstr)
		dloads += p.dloads
		pthreads += p.pthreads
		skipped += p.skipped
	}
	m["workloads.build_ms"] = ms("workloads.build")
	m["cfg.build_ms"] = ms("cfg.build")
	m["profile.run_ms"] = ms("profile.run")
	m["profile.ns_per_instr"] = ratio(float64(self["profile.run"]), profiled)
	m["profile.allocs_per_instr"] = ratio(allocs["profile.run"], profiled)
	m["profile.dloads"] = float64(dloads)
	m["slicer.build_ms"] = ms("slicer.build", "spearcc.attach")
	m["slicer.pthreads"] = float64(pthreads)
	m["slicer.skipped"] = float64(skipped)
	m["emu.ref_ms"] = ms("emu.ref")
	m["emu.ns_per_instr"] = ratio(float64(self["emu.ref"]), refInstr)
	m["emu.allocs_per_instr"] = ratio(allocs["emu.ref"], refInstr)

	cpuMetrics(m, L.report, tr, self["cpu.run"], allocs["cpu.run"])
	var stageSum float64
	for _, n := range L.stages {
		stageSum += float64(n)
	}
	for _, st := range stageMetrics {
		m["cpu.stage."+st+"_frac"] = ratio(float64(L.stages[st]), stageSum)
	}

	var walls []float64
	var gcFrac, gcCycles []float64
	for _, o := range ops {
		walls = append(walls, o.wall.Seconds())
		gcFrac = append(gcFrac, ratio(o.res.gcCPU, o.res.totalCPU))
		gcCycles = append(gcCycles, float64(o.res.gcCycles))
	}
	untraced := median(walls)
	m["harness.self_s"] = 0
	if L.glue {
		m["harness.self_s"] = untraced - float64(busy)/1e9/float64(s.width)
	}
	m["harness.report_write_ms"] = ms("harness.report_write")
	m["harness.report_bytes"] = float64(L.reportBytes)
	m["runtime.gc_cpu_frac"] = median(gcFrac)
	m["runtime.gc_cycles"] = median(gcCycles)

	p50 := func(name string) float64 { return quantile(millis(tr.durations(name)), 0.5) }
	m["speard.requests"] = float64(L.requests)
	m["speard.submit_ms"] = zeroIfNaN(p50("speard.submit"))
	m["speard.report_get_ms"] = zeroIfNaN(p50("speard.report_get"))
	m["sched.queue_wait_ms.p50"] = zeroIfNaN(quantile(millis(L.queueWait), 0.5))
	m["sched.queue_wait_ms.p90"] = zeroIfNaN(quantile(millis(L.queueWait), 0.9))
	m["sched.exec_ms.p50"] = zeroIfNaN(quantile(millis(L.exec), 0.5))
	c := L.counters
	m["sched.dedup"] = c["sched.dedup"]
	m["sched.shed"] = c["sched.shed.queue"] + c["sched.shed.client"] + c["sched.shed.drain"]
	m["journal.commits"] = c["journal.commits"]
	m["journal.bytes"] = c["journal.bytes"]
	m["journal.write_ms"] = c["journal.write.ns"] / 1e6
	m["journal.fsync_ms"] = c["journal.fsync.ns"] / 1e6
	m["store.hit_frac"] = ratio(float64(L.hits), float64(L.gets))
	m["store.open_ms"] = ms("store.open")
	m["store.entries"] = float64(L.storeEntries)

	m["trace.overhead_frac"] = (r.wall.Seconds() - untraced) / untraced
	m["trace.spans"] = float64(len(tr.spans))
}

// cpuMetrics fills the cycle-core metrics: host cost from the cpu.run
// spans, and the modelled (deterministic) statistics from the report.
func cpuMetrics(m map[string]float64, rep *harness.Report, tr *tracer, cpuNs int64, cpuAllocs float64) {
	type agg struct{ cycles, instrs, condBr, brHits, triggers, done, killed, l1a, l1m, fills, useful float64 }
	by := map[string]*agg{}
	var all agg
	if rep != nil {
		for _, row := range rep.Rows {
			res := row.Result
			if res == nil {
				continue
			}
			a := by[row.Config]
			if a == nil {
				a = &agg{}
				by[row.Config] = a
			}
			for _, x := range []*agg{a, &all} {
				x.cycles += float64(res.Cycles)
				x.instrs += float64(res.MainCommitted)
				x.condBr += float64(res.CondBranches)
				x.brHits += float64(res.BranchHits)
				x.triggers += float64(res.Triggers)
				x.done += float64(res.SessionsDone)
				x.killed += float64(res.SessionsKilled)
				x.l1a += float64(res.L1D.Accesses[mem.TidMain])
				x.l1m += float64(res.L1D.Misses[mem.TidMain])
				x.fills += float64(res.Prefetch.Fills)
				x.useful += float64(res.Prefetch.Timely + res.Prefetch.Late)
			}
		}
	}
	get := func(config string) agg {
		if a := by[config]; a != nil {
			return *a
		}
		return agg{}
	}
	m["cpu.run_ms"] = float64(cpuNs) / 1e6
	m["cpu.ns_per_cycle"] = ratio(float64(cpuNs), all.cycles)
	m["cpu.ns_per_instr"] = ratio(float64(cpuNs), all.instrs)
	m["cpu.allocs_per_instr"] = ratio(cpuAllocs, all.instrs)
	perConfig := map[string]int64{}
	for _, sp := range tr.spans {
		if sp.Name == "cpu.run" {
			perConfig[sp.Detail] += sp.End - sp.Start
		}
	}
	for config, name := range configMetrics {
		m[name] = ratio(float64(perConfig[config]), get(config).cycles)
	}

	base, s128 := get("baseline"), get("SPEAR-128")
	m["cpu.cycles"] = all.cycles
	m["cpu.ipc.baseline"] = ratio(base.instrs, base.cycles)
	m["cpu.ipc.spear128"] = ratio(s128.instrs, s128.cycles)
	m["cpu.pthread.dloads_per_trigger"] = ratio(all.done, all.triggers)
	m["cpu.pthread.killed_frac"] = ratio(all.killed, all.triggers)
	m["mem.l1d_miss_rate.baseline"] = ratio(base.l1m, base.l1a)
	m["mem.l1d_miss_rate.spear128"] = ratio(s128.l1m, s128.l1a)
	m["mem.prefetch.useful_frac"] = ratio(all.useful, all.fills)
	m["bpred.hit_ratio"] = ratio(base.brHits, base.condBr)

	m["model.norm_ipc128"], m["model.norm_ipc256"] = 0, 0
	if rep != nil {
		if rows, err := harness.Fig6FromReport(rep); err == nil {
			m["model.norm_ipc128"], m["model.norm_ipc256"] = meanNorm(rows)
		}
	}
}

// durations lists the wall time of every span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

func zeroIfNaN(v float64) float64 {
	if v != v {
		return 0
	}
	return v
}
