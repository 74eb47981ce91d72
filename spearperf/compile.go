package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"spear/internal/emu"
	"spear/internal/harness"
	"spear/internal/progen"
	"spear/internal/workloads"
)

// genPerPreset is how many generated kernels of each progen preset the
// seed adds to the fifteen paper kernels. Generated programs profile
// 15-100× faster per instruction than the paper kernels and have no
// delinquent loads, so they expose whether a profile change helps only
// the cheap path. The preset mix is fixed and the seed picks only the
// programs, so every seed asks for about the same work.
const genPerPreset = 1

// compileWorkload is harness.Prepare for every paper kernel plus the
// seed's generated kernels on a pool of settings.width workers, with no
// cycle simulation. A request is the whole kernel list, as for a sweep:
// one kernel's latency depends on which kernel it is far more than on
// the code under test.
type compileWorkload struct{}

type compileEnv struct {
	s       *settings
	opts    harness.Options
	kernels []workloads.Kernel
}

// compileNames returns the paper kernels in Table 1 order (tr, the
// slowest to profile, comes fourth) followed by the seed's
// gen:<n>:<preset> kernels, genPerPreset of each preset in name order.
func compileNames(seed int64) []string {
	var names []string
	for _, k := range workloads.All() {
		names = append(names, k.Name)
	}
	rng := rand.New(rand.NewSource(seed))
	for _, preset := range progen.PresetNames() {
		for i := 0; i < genPerPreset; i++ {
			names = append(names, fmt.Sprintf("%s%d:%s", workloads.GenPrefix, rng.Int63n(1<<31), preset))
		}
	}
	return names
}

func (compileWorkload) setup(s *settings) (opEnv, error) {
	e := &compileEnv{s: s, opts: harness.DefaultOptions()}
	for _, n := range compileNames(s.seed) {
		k, ok := workloads.ByName(n)
		if !ok {
			return nil, fmt.Errorf("unknown kernel %q", n)
		}
		e.kernels = append(e.kernels, *k)
	}
	return e, nil
}

func (e *compileEnv) close() {}

// kernelOutcome is one kernel's preparation as the checks see it.
type kernelOutcome struct {
	digest   string
	refInstr uint64
	emulated uint64 // instructions emulated by the preparation
	stats    prepStats
	err      error
}

func (e *compileEnv) run(tr *tracer) opResult {
	r := opResult{attempted: len(e.kernels), outputs: map[string]string{}}
	out := make([]kernelOutcome, len(e.kernels))
	before := readResources()
	start := time.Now()
	root := tr.begin("harness.compile", "compile", -1, false)
	pool(e.s.width, len(e.kernels), func(i int) {
		k := e.kernels[i]
		o := &out[i]
		var p *harness.Prepared
		if tr == nil {
			p, o.err = harness.Prepare(k, e.opts)
			if o.err == nil {
				o.stats = prepStats{profiled: p.Report.Profiled, refInstr: p.RefInstr}
			}
		} else {
			p, o.stats, o.err = tracedPrepare(tr, root, k, e.opts)
		}
		if o.err != nil {
			return
		}
		o.digest, o.refInstr = programDigest(p.Ref), p.RefInstr
		o.emulated = 2*o.stats.profiled + p.RefInstr
	})
	tr.finish(root)
	r.wall = time.Since(start)
	r.res = readResources().since(before)
	r.latencies = []time.Duration{r.wall}

	// Output checks, outside the timed part: the annotated binary retires
	// exactly the instructions of the plain reference build, and a paper
	// kernel's text and p-thread table match the parent commit's.
	var stats []prepStats
	for i, o := range out {
		k := e.kernels[i]
		name := k.Name
		var plain uint64
		if o.err == nil {
			plain, o.err = plainRefCount(k)
		}
		switch {
		case o.err != nil:
			r.fail("%s: %v", name, o.err)
			continue
		case o.refInstr != plain:
			r.fail("%s: annotated binary retired %d instructions, plain reference build %d", name, o.refInstr, plain)
		case !strings.HasPrefix(name, workloads.GenPrefix) && o.digest != e.s.ref.Compile[name]:
			r.fail("%s: program digest %s, reference %s", name, o.digest, e.s.ref.Compile[name])
		}
		r.instrs += o.emulated
		r.outputs[name] = fmt.Sprintf("%s/%d", o.digest, o.refInstr)
		stats = append(stats, o.stats)
	}
	if tr != nil {
		r.layers = &layerData{prep: stats, glue: true}
	}
	return r
}

// plainCounts memoizes plainRefCount per kernel name for the process: the
// count depends on the name alone, so only the first operation pays for
// the check's emulator runs, and none is inside a timed part.
var plainCounts = map[string]uint64{}

// plainRefCount runs the kernel's reference build without p-threads. It
// is called from one goroutine only.
func plainRefCount(k workloads.Kernel) (uint64, error) {
	if n, ok := plainCounts[k.Name]; ok {
		return n, nil
	}
	ref, err := k.Build(workloads.Ref)
	if err != nil {
		return 0, err
	}
	m := emu.New(ref)
	if err := m.Run(refRunLimit); err != nil {
		return 0, fmt.Errorf("plain reference run: %w", err)
	}
	plainCounts[k.Name] = m.Count
	return m.Count, nil
}
