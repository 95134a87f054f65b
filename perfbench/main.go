// Command perfbench is the repository benchmark. It runs one named workload
// against the code as it stands, checks every result against goldens
// recorded in golden/, and prints one JSON result as the last line of
// standard output. With -trace 0 it reports the end-to-end metrics; with
// -trace 1 it runs a separate traced pass that times, from this package,
// the calls into each module's public functions and reports the per-layer
// metrics. NOTES.md says why each workload exists.
//
// It is normally started through run.py, which builds it and
// cmd/bifrost-serve first:
//
//	python3 perfbench/run.py --workload serve_hits --seed 3 --seconds 20 --trace 0
//
// -record rewrites the golden file of the workload instead of checking it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, so one slow start does not move it.
const setupRepeats = 3

var (
	flagWorkload = flag.String("workload", "", "workload name: alexnet_maeri, tune_alexnet, serve_hits or cluster_sweep")
	flagSeed     = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	flagSeconds  = flag.Float64("seconds", 10, "length of the timed phase in seconds")
	flagTrace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flagRoot     = flag.String("root", ".", "repository checkout the benchmark runs in")
	flagServeBin = flag.String("serve-bin", "", "path of the bifrost-serve binary")
	flagBuildS   = flag.Float64("build-s", 0, "seconds run.py spent building the binaries (part of setup_s)")
	flagRecord   = flag.Bool("record", false, "record the workload's golden file instead of checking against it")
)

// workload is one set-up instance of a benchmark workload.
type workload interface {
	// op runs operation i from client c and returns an error when it
	// failed or its result differs from the golden.
	op(c, i int) error
	// traced runs operation i like op, recording per-layer spans in tr.
	traced(c, i int, tr *tracer) error
	// replay makes the extra per-layer measurements that do not fit inside
	// an operation, after the traced phase, and returns every per-layer
	// metric the workload measures.
	replay(tr *tracer) (map[string]float64, error)
	// verify makes the checks that run after the timed phase; a failure
	// counts against the last operation.
	verify() error
	children() []*child
	close()
}

type workloadSpec struct {
	clients int
	setup   func(r *runEnv) (workload, error)
}

var workloads = map[string]workloadSpec{
	"alexnet_maeri": {clients: 1, setup: setupAlexNet},
	"tune_alexnet":  {clients: 1, setup: setupTune},
	"serve_hits":    {clients: 2, setup: setupServeHits},
	"cluster_sweep": {clients: 1, setup: setupCluster},
}

// runEnv is what a workload's set-up needs from the run.
type runEnv struct {
	seed     int64
	root     string
	serveBin string
	tmp      string // per-run temporary directory inside the checkout
	record   bool
	golden   *goldenFile
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		cleanupAll()
		os.Exit(1)
	}
	cleanupAll()
}

func run() error {
	spec, ok := workloads[*flagWorkload]
	if !ok {
		return fmt.Errorf("unknown -workload %q", *flagWorkload)
	}
	if *flagSeconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	// Every exit path removes the children and run directories: a signal
	// runs the same cleanup as a normal return, and a closed stdout or
	// stderr makes writes fail rather than kill the process before it.
	signal.Ignore(syscall.SIGPIPE)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		cleanupAll()
		fmt.Fprintln(os.Stderr, "perfbench:", s)
		os.Exit(1)
	}()

	tmp, err := newRunDir(*flagRoot)
	if err != nil {
		return err
	}
	golden, err := loadGolden(*flagRoot, *flagWorkload, *flagRecord)
	if err != nil {
		return err
	}
	r := &runEnv{seed: *flagSeed, root: *flagRoot, serveBin: *flagServeBin, tmp: tmp,
		record: *flagRecord, golden: golden}
	env := environment(*flagRoot, *flagSeed, *flagWorkload)
	envLine, _ := json.Marshal(map[string]any{"env": env})
	fmt.Println(string(envLine))

	dur := time.Duration(*flagSeconds * float64(time.Second))
	var res result
	if *flagTrace != 0 {
		res, err = tracedRun(spec, r, dur)
	} else {
		res, err = timedRun(spec, r, dur)
	}
	if err != nil {
		return err
	}
	if golden.record {
		if err := golden.save(); err != nil {
			return err
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// setupTimed sets the workload up setupRepeats times, keeping the last
// instance, and returns it with the median set-up time.
func setupTimed(spec workloadSpec, r *runEnv) (workload, float64, error) {
	var times []float64
	var w workload
	for k := 0; k < setupRepeats; k++ {
		if w != nil {
			w.close()
			runtime.GC()
		}
		start := time.Now()
		var err error
		w, err = spec.setup(r)
		if err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		r.record = false // goldens are recorded by the first set-up only
	}
	return w, median(times), nil
}

// windowMin is the shortest measurement window. The timed phase is cut
// into windows of at least this long, each ending when an operation
// completes; throughput, CPU and allocation per operation are reported as
// medians over the windows, so a short burst of outside load moves one
// window rather than the whole run.
const windowMin = time.Second

// window is what one measurement window saw.
type window struct {
	ops   int
	dur   time.Duration
	usage procSample // resources used during the window
}

// loopResult is what a closed loop measured.
type loopResult struct {
	latencies []float64 // ms, every attempted op
	attempted int
	failed    int
	elapsed   time.Duration
	windows   []window
}

// closedLoop runs clients goroutines, each issuing its next operation only
// after the previous one returned, until dur has passed. Operation numbers
// are handed out in order across clients, starting at first. With sample
// set, the loop also records measurement windows.
func closedLoop(clients, first int, dur time.Duration, sample func() procSample, opFn func(c, i int) error) loopResult {
	var (
		next atomic.Int64
		mu   sync.Mutex
		res  loopResult
		wg   sync.WaitGroup
		cur  window
		mark procSample
	)
	next.Store(int64(first))
	if sample != nil {
		mark = sample()
	}
	start := time.Now()
	winStart := start
	deadline := start.Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				t0 := time.Now()
				err := opFn(c, i)
				now := time.Now()
				mu.Lock()
				res.attempted++
				res.latencies = append(res.latencies, float64(now.Sub(t0))/float64(time.Millisecond))
				if err != nil {
					res.failed++
					if res.failed <= 5 {
						fmt.Fprintf(os.Stderr, "perfbench: op %d failed: %v\n", i, err)
					}
				} else {
					cur.ops++
				}
				if sample != nil && now.Sub(winStart) >= windowMin && cur.ops > 0 {
					s := sample()
					cur.dur = now.Sub(winStart)
					cur.usage = s.minus(mark)
					res.windows = append(res.windows, cur)
					cur, mark, winStart = window{}, s, now
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	if sample != nil && cur.ops > 0 && (len(res.windows) == 0 || time.Since(winStart) >= windowMin/2) {
		cur.dur = time.Since(winStart)
		cur.usage = sample().minus(mark)
		res.windows = append(res.windows, cur)
	}
	return res
}

// perWindow returns the median over the windows of f.
func (l loopResult) perWindow(f func(w window) float64) float64 {
	var xs []float64
	for _, w := range l.windows {
		xs = append(xs, f(w))
	}
	return median(xs)
}

func timedRun(spec workloadSpec, r *runEnv, dur time.Duration) (result, error) {
	w, setupS, err := setupTimed(spec, r)
	if err != nil {
		return result{}, err
	}
	defer w.close()
	sample := func() procSample { return sampleProcs(w.children()) }
	setupFailed := r.golden.mismatchCount()
	loop := closedLoop(spec.clients, 0, dur, sample, w.op)
	hwm := sample().hwmMB
	if err := w.verify(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: post-run check failed:", err)
		loop.failed++
	}
	// Golden checks that failed during set-up count as failed operations.
	loop.attempted += setupFailed
	loop.failed += setupFailed
	m := map[string]metric{
		"setup_s":        {*flagBuildS + setupS, "s"},
		"ops_per_s":      {loop.perWindow(func(w window) float64 { return float64(w.ops) / w.dur.Seconds() }), "1/s"},
		"latency_p50_ms": {median(loop.latencies), "ms"},
		"cpu_ms_per_op":  {loop.perWindow(func(w window) float64 { return w.usage.cpuMS / float64(w.ops) }), "ms"},
		"alloc_kb_per_op": {loop.perWindow(func(w window) float64 {
			return float64(w.usage.allocBytes) / 1024 / float64(w.ops)
		}), "KiB"},
		"peak_rss_mb": {hwm, "MiB"},
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d ops=%d failed=%d windows=%d elapsed=%.2fs setup=%.2fs\n",
		*flagWorkload, r.seed, loop.attempted, loop.failed, len(loop.windows), loop.elapsed.Seconds(), setupS)
	return result{Correct: loop.failed == 0, Attempted: loop.attempted, Failed: loop.failed, Metrics: m}, nil
}

// tracedRun sets up once, measures untraced throughput for half the time
// and traced throughput for the other half, then replays layer calls. Only
// per-layer metrics are reported.
func tracedRun(spec workloadSpec, r *runEnv, dur time.Duration) (result, error) {
	w, err := spec.setup(r)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	r.record = false
	defer w.close()
	setupFailed := r.golden.mismatchCount()
	plain := closedLoop(spec.clients, 0, dur/2, nil, w.op)
	tr := newTracer()
	// Traced operations get numbers of their own, so their inputs are
	// fresh too.
	traced := closedLoop(spec.clients, tracedFirstOp, dur/2, nil, func(c, i int) error { return w.traced(c, i, tr) })
	layers, err := w.replay(tr)
	if err != nil {
		return result{}, fmt.Errorf("replay: %w", err)
	}
	if err := w.verify(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: post-run check failed:", err)
		traced.failed++
	}
	attempted := plain.attempted + traced.attempted + setupFailed
	failed := plain.failed + traced.failed + setupFailed

	plainRate := float64(plain.attempted-plain.failed) / plain.elapsed.Seconds()
	tracedRate := float64(traced.attempted-traced.failed) / traced.elapsed.Seconds()
	layers["trace.overhead_ratio"] = tracedRate / plainRate
	if _, ok := layers["trace.uncovered_ms"]; !ok {
		layers["trace.uncovered_ms"] = tr.uncoveredMS()
	}

	m := make(map[string]metric, len(layerMetrics))
	for _, lm := range layerMetrics {
		m[lm.name] = metric{layers[lm.name], lm.unit}
	}
	for name := range layers {
		if _, ok := m[name]; !ok {
			return result{}, fmt.Errorf("workload reported unknown layer metric %q", name)
		}
	}
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// tracedFirstOp numbers the traced phase's operations past any the
// untraced phase of the same run can reach.
const tracedFirstOp = 1 << 20

// layerMetrics is every per-layer metric, in BENCHMARK.json order. A
// workload that never enters a layer reports 0 for it.
var layerMetrics = []struct{ name, unit string }{
	{"serve.decode_us", "us"},
	{"serve.compile_ms", "ms"},
	{"tensor.gen_ms", "ms"},
	{"tensor.prune_ms", "ms"},
	{"farm.key_ms", "ms"},
	{"farm.lookup_us", "us"},
	{"serve.encode_us", "us"},
	{"serve.http_ms", "ms"},
	{"net.conv1_ms", "ms"},
	{"net.conv2_ms", "ms"},
	{"net.conv3_ms", "ms"},
	{"net.conv4_ms", "ms"},
	{"net.conv5_ms", "ms"},
	{"net.fc6_ms", "ms"},
	{"net.fc7_ms", "ms"},
	{"net.fc8_ms", "ms"},
	{"core.cpu_ops_ms", "ms"},
	{"stonne.analytic_ms", "ms"},
	{"stonne.fused_ms", "ms"},
	{"tensor.pack_ms", "ms"},
	{"tensor.pack_hit_ratio", "ratio"},
	{"farm.overhead_ms", "ms"},
	{"autotune.measure_ms", "ms"},
	{"autotune.measure_alloc_mb", "MiB"},
	{"autotune.search_ms", "ms"},
	{"autotune.trials", "count"},
	{"autotune.infeasible_ratio", "ratio"},
	{"farm.dry_conv_us", "us"},
	{"farm.dry_dense_ms", "ms"},
	{"farm.hit_ratio", "ratio"},
	{"farm.dedup_ratio", "ratio"},
	{"farm.peer_hop_ms", "ms"},
	{"farm.peer_put_ms", "ms"},
	{"farm.peer_get_ms", "ms"},
	{"farm.persist_ms", "ms"},
	{"farm.replica_failure_ratio", "ratio"},
	{"trace.uncovered_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// opSeed derives the input seed of operation i from the workload seed
// (splitmix64). Results are at least 1<<32, so they never collide with the
// small fixed seeds the goldens use.
func opSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z>>24) + 1<<32
}

// permutation returns a seeded shuffle of 0..n-1.
func permutation(seed int64, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(uint64(opSeed(seed, 1000+i)) % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}
