package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spear/internal/harness"
	"spear/internal/perf"
	"spear/internal/progen"
	"spear/internal/sched"
	"spear/internal/speard"
	"spear/internal/store"
	"spear/internal/workloads"
)

// The request stream's shape. The repository holds no record of real
// traffic to base it on: its CI server and cluster jobs send a handful of
// fixed requests to test behaviour, not load. So the shares are chosen,
// and each run prints the share, median latency and store-hit share it
// measured for every kind of request.
const (
	// serveRequests is the length of one stream: at least 100, so that
	// req_ms.p90 has at least 10 samples beyond it. The server drains and
	// restarts over its data directory halfway through.
	serveRequests = 120
	// kindsPerHalf is how many requests of each kind (fresh, overlap,
	// repeat) each half of the stream holds. Equal shares weigh the three
	// paths the same. Repeats take about a millisecond and the other kinds
	// tens of milliseconds, so the fast third ends well below req_ms.p50
	// and req_ms.p90: neither quantile sits on the boundary where a small
	// change of shares would move it between a hit and a simulation.
	kindsPerHalf = serveRequests / 2 / 3
	// maxSetKernels is the largest kernel set. Sets hold one or two tiny
	// generated kernels, equally often: one is the cheapest request, two
	// exercise a multi-kernel suite. Every fresh request brings a new set,
	// so the stream has 2*kindsPerHalf sets, more than the engine's
	// warm-suite cap of 8.
	maxSetKernels = 2
	// pollInterval paces a client's job-state polls.
	pollInterval = 2 * time.Millisecond
	// streamShapeSeed fixes the stream's shape across benchmark seeds.
	streamShapeSeed = 1
)

// streamReq is one request of the seeded stream.
type streamReq struct {
	req  sched.Request
	kind string // fresh, overlap or repeat
}

var streamKinds = []string{"fresh", "overlap", "repeat"}

// serveStream generates the request stream from the seed alone. Fresh
// requests name a kernel set no earlier request used (prepare, simulate,
// journal, store). Overlap requests ask for an earlier set on a config
// subset not asked for before (new simulations, on the warm suite if the
// set is among the 8 the engine caches). Repeats resend an earlier
// request exactly: in the first half one from the first half (dedup onto
// a live or finished job), in the second half one from the first half
// too, so that the reopened store serves it. Config subsets are drawn
// uniformly from the non-empty subsets of the five StandardConfigs.
//
// The seed picks the generated programs. The stream's shape (the order
// of kinds, the configs and which earlier request is reused) comes from a
// fixed generator, so every seed asks for about the same work and runs
// with different seeds are comparable.
func serveStream(seed int64) []streamReq {
	programs := rand.New(rand.NewSource(seed))
	rng := rand.New(rand.NewSource(streamShapeSeed))
	var configs []string
	for _, c := range harness.StandardConfigs() {
		configs = append(configs, c.Name)
	}
	subset := func() []string {
		for {
			var out []string
			for _, c := range configs {
				if rng.Intn(2) == 0 {
					out = append(out, c)
				}
			}
			if len(out) > 0 {
				return out
			}
		}
	}
	tiny := progen.Presets()["tiny"]
	newSet := func() []string {
		var set []string
		for n := 1 + rng.Intn(maxSetKernels); len(set) < n; {
			set = append(set, workloads.Generated(programs.Int63n(1<<31), tiny).Name)
		}
		return set
	}

	var out []streamReq
	var sets [][]string
	seen := map[string]bool{}
	mid := serveRequests / 2
	for half := 0; half < 2; half++ {
		left := map[string]int{}
		for _, k := range streamKinds {
			left[k] = kindsPerHalf
		}
		for n := 3 * kindsPerHalf; n > 0; {
			// Draw a kind in proportion to what is left of it; the
			// stream opens with a fresh request.
			kind := "fresh"
			if len(out) > 0 {
				pick := rng.Intn(n)
				for _, k := range streamKinds {
					if pick -= left[k]; pick < 0 {
						kind = k
						break
					}
				}
			}
			var q streamReq
			switch kind {
			case "fresh":
				sets = append(sets, newSet())
				q.req = sched.Request{Kernels: sets[len(sets)-1], Configs: subset(), Seed: 1}
			case "overlap":
				q.req = sched.Request{Kernels: sets[rng.Intn(len(sets))], Configs: subset(), Seed: 1}
				if seen[q.req.Key()] {
					continue
				}
			case "repeat":
				q.req = out[rng.Intn(min(len(out), mid))].req
			}
			q.kind = kind
			seen[q.req.Key()] = true
			out = append(out, q)
			left[kind]--
			n--
		}
	}
	return out
}

// serveWorkload drives an in-process speard server on loopback with
// per-job journals and a report store in a fresh data directory.
// settings.width closed-loop clients send the seeded stream; each sends
// its next request only after the previous one's report is verified.
type serveWorkload struct{}

type serveEnv struct {
	s      *settings
	stream []streamReq
	dir    string
	reg    *perf.Registry
	srv    *server
}

func (serveWorkload) setup(s *settings) (opEnv, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(".bench_build", "serve-")
	if err != nil {
		return nil, err
	}
	if dir, err = filepath.Abs(dir); err != nil {
		return nil, err
	}
	e := &serveEnv{s: s, stream: serveStream(s.seed), dir: dir, reg: perf.NewRegistry()}
	if e.srv, err = startServer(nil, dir, e.reg, s.width); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return e, nil
}

func (e *serveEnv) close() {
	if e.srv != nil {
		e.srv.stop()
		e.srv = nil
	}
	os.RemoveAll(e.dir)
}

// server is one incarnation of the service over the data directory.
type server struct {
	sched  *sched.Scheduler
	store  *store.Index
	http   *http.Server
	url    string
	client *http.Client
	served chan error
}

// startServer opens the report store over dir and serves a scheduler on
// a loopback port, wired as cmd/speard wires them: the perf registry
// goes to the scheduler, journals and store, never to the engine.
func startServer(tr *tracer, dir string, reg *perf.Registry, width int) (*server, error) {
	var ix *store.Index
	var err error
	tr.leaf("store.open", "restart", -1, func() { ix, err = store.Open(store.Config{Dir: dir, Perf: reg}) })
	if err != nil {
		return nil, err
	}
	opts := harness.DefaultOptions()
	opts.Parallel = 1 // Workers jobs at a time, one simulation each
	sch := sched.New(sched.NewSuiteEngine(opts), sched.Config{Workers: width, DataDir: dir, Store: ix, Perf: reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sch.Close()
		return nil, err
	}
	sv := &server{
		sched: sch, store: ix, url: "http://" + ln.Addr().String(),
		http:   &http.Server{Handler: speard.New(sch, reg).Handler()},
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: maxWidth}},
		served: make(chan error, 1),
	}
	go func() { sv.served <- sv.http.Serve(ln) }()
	if status, _, _, err := sv.get("/healthz"); err != nil || status != http.StatusOK {
		sv.stop()
		return nil, fmt.Errorf("server not healthy: status %d, %v", status, err)
	}
	return sv, nil
}

// stop drains the scheduler, then stops serving.
func (sv *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := sv.sched.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "spearperf: drain:", err)
	}
	if err := sv.http.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "spearperf: shutdown:", err)
	}
	<-sv.served
	sv.sched.Close()
	sv.client.CloseIdleConnections()
}

func (sv *server) get(path string) (status int, body []byte, cache string, err error) {
	resp, err := sv.client.Get(sv.url + path)
	if err != nil {
		return 0, nil, "", err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	return resp.StatusCode, body, resp.Header.Get("X-Spear-Cache"), err
}

func (sv *server) post(path string, payload []byte) (status int, body []byte, err error) {
	resp, err := sv.client.Post(sv.url+path, "application/json", bytes.NewReader(payload))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// serveTally collects what the clients saw, shared between them.
type serveTally struct {
	mu        sync.Mutex
	r         *opResult
	bytesByID map[string]string // digest of the first report served per job
	queueWait []time.Duration
	exec      []time.Duration
	hits      int
	gets      int
}

func (e *serveEnv) run(tr *tracer) opResult {
	r := opResult{attempted: len(e.stream), outputs: map[string]string{},
		kindLat: map[string][]time.Duration{}, kindHits: map[string]int{}}
	t := &serveTally{r: &r, bytesByID: map[string]string{}}
	before := readResources()
	start := time.Now()

	mid := len(e.stream) / 2
	e.phase(tr, t, 0, e.stream[:mid])
	tr.leaf("sched.drain", "restart", -1, e.srv.stop)
	e.srv = nil
	srv, err := startServer(tr, e.dir, e.reg, e.s.width)
	if err != nil {
		r.fail("restart: %v", err)
	} else {
		e.srv = srv
		e.phase(tr, t, mid, e.stream[mid:])
	}

	r.wall = time.Since(start)
	r.res = readResources().since(before)
	for id, d := range t.bytesByID {
		r.outputs[id] = d
	}
	if tr != nil {
		entries := 0
		if e.srv != nil {
			entries = e.srv.store.Len()
		}
		r.layers = &layerData{
			queueWait: t.queueWait, exec: t.exec, hits: t.hits, gets: t.gets,
			storeEntries: entries, requests: len(e.stream), counters: counters(e.reg),
		}
	}
	return r
}

// phase sends reqs through settings.width closed-loop clients.
func (e *serveEnv) phase(tr *tracer, t *serveTally, offset int, reqs []streamReq) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < e.s.width; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				e.request(tr, t, offset+i, reqs[i])
			}
		}()
	}
	wg.Wait()
}

// request sends one request and waits for its verified report bytes.
func (e *serveEnv) request(tr *tracer, t *serveTally, i int, q streamReq) {
	op := fmt.Sprintf("req%03d", i)
	root := tr.begin("request", op, -1, false)
	defer tr.finish(root)
	start := time.Now()
	fail := func(format string, args ...any) {
		t.mu.Lock()
		t.r.fail("request %d (%s): %s", i, q.kind, fmt.Sprintf(format, args...))
		t.mu.Unlock()
	}
	sv := e.srv
	payload, err := json.Marshal(q.req)
	if err != nil {
		fail("%v", err)
		return
	}

	var status int
	var body []byte
	tr.leaf("speard.submit", op, root, func() { status, body, err = sv.post("/v1/sweeps", payload) })
	if err != nil || (status != http.StatusAccepted && status != http.StatusOK) {
		fail("submit: status %d, %v: %s", status, err, strings.TrimSpace(string(body)))
		return
	}
	var snap sched.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		fail("submit response: %v", err)
		return
	}
	admitted := status == http.StatusAccepted
	tr.leaf("speard.wait", op, root, func() {
		for !snap.State.Terminal() && err == nil {
			time.Sleep(pollInterval)
			var st int
			if st, body, _, err = sv.get("/v1/jobs/" + snap.ID); err == nil && st != http.StatusOK {
				err = fmt.Errorf("status %d", st)
			}
			if err == nil {
				err = json.Unmarshal(body, &snap)
			}
		}
	})
	if err != nil || snap.State != sched.JobDone {
		fail("job %.12s ended %s: %v %s", snap.ID, snap.State, err, snap.Error)
		return
	}
	var cache string
	tr.leaf("speard.report_get", op, root, func() { status, body, cache, err = sv.get("/v1/jobs/" + snap.ID + "/report") })
	if err != nil || status != http.StatusOK {
		fail("report: status %d, %v", status, err)
		return
	}
	instrs, err := checkServed(q.req, body)
	lat := time.Since(start)

	d := digest(body)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.gets++
	hit := cache == "hit"
	if hit {
		t.hits++
	}
	if first, ok := t.bytesByID[snap.ID]; ok && first != d {
		err = fmt.Errorf("served bytes differ from the first response for this job (%s, %.12s vs %.12s)", cache, d, first)
	}
	if err != nil {
		t.r.fail("request %d (%s): %v", i, q.kind, err)
		return
	}
	t.bytesByID[snap.ID] = d
	t.r.instrs += instrs
	t.r.latencies = append(t.r.latencies, lat)
	t.r.kindLat[q.kind] = append(t.r.kindLat[q.kind], lat)
	if hit {
		t.r.kindHits[q.kind]++
	}
	if admitted {
		t.queueWait = append(t.queueWait, snap.Started.Sub(snap.Created))
		t.exec = append(t.exec, snap.Finished.Sub(snap.Started))
	}
}

// checkServed verifies a served report against its request: one
// error-free row per (kernel, config), and every config of a kernel
// retiring the same instructions to the same final state. It returns the
// main-thread instructions the report covers.
func checkServed(req sched.Request, raw []byte) (uint64, error) {
	rep, err := harness.ReadReport(bytes.NewReader(raw))
	if err != nil {
		return 0, err
	}
	if rep.Interrupted || len(rep.Rows) != len(req.Kernels)*len(req.Configs) {
		return 0, fmt.Errorf("report has %d rows (interrupted=%v), want %d", len(rep.Rows), rep.Interrupted, len(req.Kernels)*len(req.Configs))
	}
	var instrs uint64
	for _, k := range req.Kernels {
		first := rep.Lookup(k, req.Configs[0])
		for _, c := range req.Configs {
			row := rep.Lookup(k, c)
			switch {
			case row == nil || row.Result == nil:
				return 0, fmt.Errorf("%s on %s: no result", k, c)
			case row.Result.MainCommitted != first.Result.MainCommitted || row.Result.FinalStateHash != first.Result.FinalStateHash:
				return 0, fmt.Errorf("%s on %s: committed %d hash %x, %s committed %d hash %x", k, c,
					row.Result.MainCommitted, row.Result.FinalStateHash, req.Configs[0], first.Result.MainCommitted, first.Result.FinalStateHash)
			}
			instrs += row.Result.MainCommitted
		}
	}
	return instrs, nil
}

// counters copies the registry's counters and gauges by name.
func counters(reg *perf.Registry) map[string]float64 {
	out := map[string]float64{}
	snap := reg.Snapshot()
	for _, c := range snap.Counters {
		out[c.Name] = float64(c.Value)
	}
	for _, g := range snap.Gauges {
		out[g.Name] = g.Value
	}
	return out
}
