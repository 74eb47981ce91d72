package main

import (
	"strings"
	"testing"
)

func TestCoveredUnionsOverlappingChildren(t *testing.T) {
	cases := []struct {
		lo, hi int64
		ivs    [][2]int64
		want   int64
	}{
		{0, 100, nil, 0},
		{0, 100, [][2]int64{{10, 20}, {30, 40}}, 20},
		{0, 100, [][2]int64{{10, 50}, {20, 30}, {40, 60}}, 50},
		{0, 100, [][2]int64{{60, 120}, {-10, 5}}, 45},
		{0, 100, [][2]int64{{0, 100}, {0, 100}}, 100},
	}
	for _, c := range cases {
		if got := covered(c.lo, c.hi, c.ivs); got != c.want {
			t.Errorf("covered(%d, %d, %v) = %d, want %d", c.lo, c.hi, c.ivs, got, c.want)
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 50, Leaf: true},
		{Name: "b", Parent: 0, Start: 40, End: 70, Leaf: true},
	}}
	self, _, busy := tr.layerTotals()
	if self["root"] != 40 || self["a"] != 40 || self["b"] != 30 {
		t.Errorf("self times %v, want root 40, a 40, b 30", self)
	}
	if busy != 70 {
		t.Errorf("busy %d, want 70", busy)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if got := quantile(xs, 0.5); got != 3 {
		t.Errorf("median %v, want 3", got)
	}
	if got := quantile(xs, 0.9); got != 4.6 {
		t.Errorf("p90 %v, want 4.6", got)
	}
	if got := quantile(nil, 0.5); got == got {
		t.Errorf("empty sample gave %v, want NaN", got)
	}
}

func TestServeStreamIsSeededAndMixed(t *testing.T) {
	a, b := serveStream(3), serveStream(3)
	mid := serveRequests / 2
	sets := map[string]bool{}
	firstHalf := map[string]bool{}
	for half, reqs := range [][]streamReq{a[:mid], a[mid:]} {
		kinds := map[string]int{}
		for _, q := range reqs {
			kinds[q.kind]++
		}
		for _, k := range streamKinds {
			if kinds[k] != kindsPerHalf {
				t.Errorf("half %d has kinds %v, want %d of each", half, kinds, kindsPerHalf)
			}
		}
	}
	for i := range a {
		if a[i].req.Key() != b[i].req.Key() || a[i].kind != b[i].kind {
			t.Fatalf("request %d differs between two streams of seed 3", i)
		}
		sets[strings.Join(a[i].req.Kernels, ",")] = true
		for _, k := range a[i].req.Kernels {
			if !strings.HasPrefix(k, "gen:") {
				t.Fatalf("request %d names %q, want generated kernels only", i, k)
			}
		}
		if i < mid {
			firstHalf[a[i].req.Key()] = true
		} else if a[i].kind == "repeat" && !firstHalf[a[i].req.Key()] {
			t.Errorf("repeat %d after the restart does not replay a request from before it", i)
		}
	}
	if len(a) != serveRequests || a[0].kind != "fresh" {
		t.Errorf("stream has %d requests and opens with %s", len(a), a[0].kind)
	}
	if len(sets) <= 8 {
		t.Errorf("stream uses %d kernel sets, want more than the warm-suite cap of 8", len(sets))
	}
	if serveStream(4)[0].req.Key() == a[0].req.Key() {
		t.Error("seeds 3 and 4 start with the same request")
	}
}
