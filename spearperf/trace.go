package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// span is one timed call. Spans of one kernel or request share op.
type span struct {
	Name   string `json:"name"`
	Op     string `json:"op"`
	Detail string `json:"detail,omitempty"` // e.g. the machine config of a cpu.run span
	Parent int    `json:"parent"`           // index into the tracer's spans, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Leaf   bool   `json:"leaf"`
	Allocs uint64 `json:"allocs"`  // heap objects allocated, leaf spans of an allocation pass only
	Self   int64  `json:"self_ns"` // filled by selfTimes

	mallocs uint64 // MemStats.Mallocs when the span opened
}

// tracer records spans in memory; write saves them when the run ends.
// A nil tracer records nothing.
//
// A tracer made for an allocation pass also counts the heap objects each
// leaf span allocates, from runtime.MemStats.Mallocs read when the leaf
// opens and closes (exact: the read flushes every P's allocation cache).
// An allocation pass runs its operation on one worker, so one leaf is
// open at a time and each layer is charged only for its own objects. The
// reads stop the world, so an allocation pass's times are not used.
type tracer struct {
	mu          sync.Mutex
	base        time.Time
	spans       []span
	countAllocs bool
}

func newTracer(countAllocs bool) *tracer {
	return &tracer{base: time.Now(), countAllocs: countAllocs}
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name, op string, parent int, leaf bool) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := span{Name: name, Op: op, Parent: parent, Leaf: leaf}
	if leaf && t.countAllocs {
		sp.mallocs = mallocs()
	}
	sp.Start = int64(time.Since(t.base))
	t.spans = append(t.spans, sp)
	return len(t.spans) - 1
}

// finish closes span id.
func (t *tracer) finish(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &t.spans[id]
	sp.End = int64(time.Since(t.base))
	if sp.Leaf && t.countAllocs {
		sp.Allocs = mallocs() - sp.mallocs
	}
}

// leaf records f as one call into a layer.
func (t *tracer) leaf(name, op string, parent int, f func()) { t.leafDetail(name, op, "", parent, f) }

func (t *tracer) leafDetail(name, op, detail string, parent int, f func()) {
	id := t.begin(name, op, parent, true)
	if t != nil && detail != "" {
		t.mu.Lock()
		t.spans[id].Detail = detail
		t.mu.Unlock()
	}
	f()
	t.finish(id)
}

// selfTimes sets every span's self time: its duration minus the part of
// it that its children's spans cover (children may overlap one another).
func (t *tracer) selfTimes() {
	children := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.Self = s.End - s.Start - covered(s.Start, s.End, children[i])
	}
}

// covered is the length of [lo, hi) covered by the union of intervals.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// layerTotals sums self time (ns) and allocations per span name.
func (t *tracer) layerTotals() (self map[string]int64, allocs map[string]float64, busy int64) {
	t.selfTimes()
	self, allocs = map[string]int64{}, map[string]float64{}
	for _, s := range t.spans {
		self[s.Name] += s.Self
		allocs[s.Name] += float64(s.Allocs)
		if s.Leaf {
			busy += s.End - s.Start
		}
	}
	return self, allocs, busy
}

// write saves the spans as JSON lines into dir/<file>.
func (t *tracer) write(dir, file string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("spearperf: %d spans written to %s\n", len(t.spans), path)
	return nil
}
