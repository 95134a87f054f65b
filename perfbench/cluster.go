package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"regexp"
	"strconv"
	"strings"
	"time"

	"repro/internal/farm"
	"repro/internal/models"
	"repro/internal/mrna"
	"repro/internal/serve"
	"repro/internal/stonne/config"
	"repro/internal/tensor"
)

const (
	// clusterGoldenSeed is the operand seed of the sweep set-up checks
	// against the golden rows; recording also sweeps clusterGoldenSeed2 to
	// find the cells whose Stats do not depend on the operands.
	clusterGoldenSeed  = 500
	clusterGoldenSeed2 = 501
	clusterSamples     = 3 // repetitions of each sampled peer/disk call
	clusterSampledRows = 4 // rows sampled for the peer hop
	// The workers' memory and disk tiers are bounded small enough that a
	// sweep or two fills them: every timed sweep then runs at the bound,
	// evicting as it inserts, and no metric drifts with run length.
	clusterWorkerMemory = 16 << 20
	clusterWorkerDisk   = 16 << 20
)

// clusterCols are the sweep grid's architecture columns.
var clusterCols = []struct {
	name string
	arch serve.ArchSpec
	mrna bool
}{
	{"maeri_basic", serve.ArchSpec{Controller: "maeri"}, false},
	{"maeri_mrna", serve.ArchSpec{Controller: "maeri"}, true},
	{"sigma_dense", serve.ArchSpec{Controller: "sigma"}, false},
	{"sigma50", serve.ArchSpec{Controller: "sigma", Sparsity: 50}, false},
	{"tpu", serve.ArchSpec{Controller: "tpu"}, false},
}

// clusterSweep is one NDJSON /batch sweep per operation over AlexNet
// conv2..conv5 × clusterCols, sent to a coordinator that shards it over two
// replicating bifrost-serve workers. Every sweep uses fresh operand seeds,
// so every row misses.
type clusterSweep struct {
	r      *runEnv
	client *http.Client
	coord  *child
	nodes  map[string]*child // worker name → process
	cells  []string          // "<layer>/<col>" per row
	rows   []serve.JobRequest
	start  farm.Stats // summed over the workers after set-up

	last     []sweepRow // rows of the last completed sweep, for verify and replay
	lastReqs []serve.JobRequest
}

// sweepRow is the part of a /batch result row the benchmark reads.
type sweepRow struct {
	raw  []byte
	Key  string `json:"key"`
	Peer string `json:"peer"`
}

func setupCluster(r *runEnv) (workload, error) {
	cs := &clusterSweep{r: r, client: httpClient(1), nodes: map[string]*child{}}
	mapper, err := mrna.NewMapper(config.Default(config.MAERIDenseWorkload), mrna.MinimizeCycles)
	if err != nil {
		return nil, err
	}
	for _, l := range models.AlexNetLayers()[1:5] {
		for _, col := range clusterCols {
			req := convRequest(l, col.arch, 0)
			if col.mrna {
				m, _, err := mapper.MapConv(l.Conv)
				if err != nil {
					return nil, err
				}
				req.Mapping = []int{m.TR, m.TS, m.TC, m.TK, m.TG, m.TN, m.TX, m.TY}
			}
			cs.cells = append(cs.cells, l.Name+"/"+col.name)
			cs.rows = append(cs.rows, req)
		}
	}
	if err := cs.start3(); err != nil {
		cs.close()
		return nil, err
	}
	stats, err := cs.sweep(clusterGoldenSeed, true)
	if err != nil && !isMismatch(err) {
		cs.close()
		return nil, fmt.Errorf("golden sweep: %w", err)
	}
	if r.record {
		// Counters are checked on the fresh seeds of timed sweeps only for
		// MAERI and TPU cells, and only if two seeds agree on them: SIGMA
		// skips zero operands, so its counters follow the operands.
		stats2, err := cs.sweep(clusterGoldenSeed2, false)
		if err != nil {
			cs.close()
			return nil, err
		}
		for k, cell := range cs.cells {
			if cs.rows[k].Arch.Controller != "sigma" && stats[k] == stats2[k] {
				r.golden.check("stats/"+cell, stats[k])
			}
		}
	}
	st, err := cs.workerStats()
	if err != nil {
		cs.close()
		return nil, err
	}
	cs.start = st
	return cs, nil
}

// start3 starts the two workers, each replicating to the other with its
// own cache directory, and the coordinator, and waits until all are ready.
func (cs *clusterSweep) start3() error {
	var ports [3]int
	for k := range ports {
		p, err := freePort()
		if err != nil {
			return err
		}
		ports[k] = p
	}
	url := func(k int) string { return fmt.Sprintf("http://127.0.0.1:%d", ports[k]) }
	for k, name := range []string{"w1", "w2"} {
		dir, err := os.MkdirTemp(cs.r.tmp, name+"-cache-")
		if err != nil {
			return err
		}
		other := url(2 - k)
		c, err := startServe(cs.r, name, ports[k+1], "-workers", "1", "-cache-dir", dir,
			"-peer-store", other, "-replicas", "2",
			"-cache-max-entries", "64", "-cache-max-bytes", strconv.Itoa(clusterWorkerMemory),
			"-cache-disk-max-bytes", strconv.Itoa(clusterWorkerDisk))
		if err != nil {
			return err
		}
		cs.nodes[name] = c
	}
	c, err := startServe(cs.r, "coord", ports[0], "-coordinator", "-workers", "1",
		"-peers", "w1="+url(1)+",w2="+url(2))
	if err != nil {
		return err
	}
	cs.coord = c
	for _, c := range []*child{cs.nodes["w1"], cs.nodes["w2"], cs.coord} {
		if err := c.waitHTTP("/readyz", 30*time.Second); err != nil {
			return err
		}
	}
	return nil
}

// sweep sends the grid with every row's operands drawn from seed and checks
// the rows: against the full golden rows when golden is set, otherwise
// against the golden output shapes and, for cells whose counters do not
// depend on the operands, the golden Stats.
func (cs *clusterSweep) sweep(seed int64, golden bool) ([]string, error) {
	reqs := make([]serve.JobRequest, len(cs.rows))
	var body bytes.Buffer
	for k, req := range cs.rows {
		req.Seed = seed
		reqs[k] = req
		line, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		body.Write(line)
		body.WriteByte('\n')
	}
	raw, err := post(cs.client, cs.coord.url+"/batch", "application/x-ndjson", body.Bytes())
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	if len(lines) != len(reqs) {
		return nil, fmt.Errorf("sweep returned %d rows, want %d", len(lines), len(reqs))
	}
	rows := make([]sweepRow, len(lines))
	stats := make([]string, len(lines))
	g := cs.r.golden
	for k, line := range lines {
		var row struct {
			sweepRow
			Error       string          `json:"error"`
			Stats       json.RawMessage `json:"stats"`
			OutputShape json.RawMessage `json:"output_shape"`
		}
		if err := json.Unmarshal(line, &row); err != nil {
			return nil, err
		}
		if row.Error != "" {
			return nil, fmt.Errorf("row %s: %s", cs.cells[k], row.Error)
		}
		row.raw = line
		rows[k] = row.sweepRow
		cell := cs.cells[k]
		stats[k] = string(row.Stats)
		if err := g.check("shape/"+cell, string(row.OutputShape)); err != nil {
			return nil, err
		}
		if golden {
			canon, err := canonicalJSON(line, "cached", "peer", "elapsed_ms", "trace")
			if err != nil {
				return nil, err
			}
			if err := g.check("row/"+cell, canon); err != nil {
				return nil, err
			}
		} else if _, ok := g.lookup("stats/" + cell); ok && !g.record {
			if err := g.check("stats/"+cell, string(row.Stats)); err != nil {
				return nil, err
			}
		}
	}
	cs.last, cs.lastReqs = rows, reqs
	return stats, nil
}

func (cs *clusterSweep) op(_, i int) error {
	_, err := cs.sweep(opSeed(cs.r.seed, i), false)
	return err
}

func (cs *clusterSweep) traced(_, i int, tr *tracer) error {
	start := time.Now()
	_, err := cs.sweep(opSeed(cs.r.seed, i), false)
	tr.op(time.Since(start), 0)
	return err
}

// verify recomputes the last sweep's rows in-process with farm.Run and
// checks key, counters and output summary against what the cluster sent.
func (cs *clusterSweep) verify() error {
	for k, req := range cs.lastReqs {
		job, err := req.Job()
		if err != nil {
			return err
		}
		key, err := job.Key()
		if err != nil {
			return err
		}
		res, err := farm.Run(job)
		if err != nil {
			return err
		}
		want := serve.JobResponse{Key: key, Stats: &res.Stats, OutputShape: res.Out.Shape()}
		for _, v := range res.Out.Data() {
			want.OutputSum += float64(v)
		}
		wantRaw, err := json.Marshal(want)
		if err != nil {
			return err
		}
		drop := []string{"cached", "peer", "elapsed_ms", "trace"}
		a, err := canonicalJSON(wantRaw, drop...)
		if err != nil {
			return err
		}
		b, err := canonicalJSON(cs.last[k].raw, drop...)
		if err != nil {
			return err
		}
		if a != b {
			return fmt.Errorf("row %s differs from an in-process run:\n  got  %s\n  want %s", cs.cells[k], b, a)
		}
	}
	return nil
}

// workerStats adds up the farm counters of both workers.
func (cs *clusterSweep) workerStats() (farm.Stats, error) {
	var sum farm.Stats
	for _, c := range cs.nodes {
		var st farm.Stats
		if err := getJSON(cs.client, c.url+"/stats", &st); err != nil {
			return sum, err
		}
		sum.Submitted += st.Submitted
		sum.Hits += st.Hits
		sum.Deduped += st.Deduped
		sum.Pack.Hits += st.Pack.Hits
		sum.Pack.Misses += st.Pack.Misses
	}
	return sum, nil
}

var metricLine = regexp.MustCompile(`^(bifrost_replica_(?:writes|failures)_total)(?:\{[^}]*\})? ([0-9.e+-]+)$`)

// replicaCounts adds up the workers' replica write and failure counters.
func (cs *clusterSweep) replicaCounts() (writes, failures float64, err error) {
	for _, c := range cs.nodes {
		resp, err := cs.client.Get(c.url + "/metrics")
		if err != nil {
			return 0, 0, err
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			m := metricLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
			if m == nil {
				continue
			}
			v, _ := strconv.ParseFloat(m[2], 64)
			if m[1] == "bifrost_replica_writes_total" {
				writes += v
			} else {
				failures += v
			}
		}
		resp.Body.Close()
	}
	return writes, failures, nil
}

// roundTrip times one POST /simulate of body to url.
func (cs *clusterSweep) roundTrip(url string, body []byte) (time.Duration, error) {
	start := time.Now()
	_, err := post(cs.client, url+"/simulate", "application/json", body)
	return time.Since(start), err
}

// replay measures the per-row request path in-process, the simulator split
// (full run with a warm and a fresh pack cache, MAERI dry runs), the peer
// hop, the peer wire protocol and a disk persist, all on the last traced
// sweep's rows.
func (cs *clusterSweep) replay(tr *tracer) (map[string]float64, error) {
	st, err := cs.workerStats()
	if err != nil {
		return nil, err
	}
	writes, failures, err := cs.replicaCounts()
	if err != nil {
		return nil, err
	}
	nrows := float64(len(cs.lastReqs))
	bodies := make([][]byte, len(cs.lastReqs))
	order := make([]int, len(bodies))
	for k, req := range cs.lastReqs {
		if bodies[k], err = json.Marshal(req); err != nil {
			return nil, err
		}
		order[k] = k
	}
	rt, err := replayRequests(bodies, order, 1, false)
	if err != nil {
		return nil, err
	}
	ms := time.Millisecond
	m := map[string]float64{
		"serve.decode_us":  rt.perOp("decode", time.Microsecond),
		"serve.compile_ms": rt.perOp("compile", ms) * nrows,
		"tensor.gen_ms":    rt.perOp("gen", ms) * nrows,
		"tensor.prune_ms":  rt.perOp("prune", ms) * nrows,
		"farm.key_ms":      rt.perOp("key", ms) * nrows,
		"farm.hit_ratio":   ratio(st.Hits-cs.start.Hits, st.Submitted-cs.start.Submitted),
		"farm.dedup_ratio": ratio(st.Deduped-cs.start.Deduped, st.Submitted-cs.start.Submitted),
		"tensor.pack_hit_ratio": ratio(st.Pack.Hits-cs.start.Pack.Hits,
			st.Pack.Hits+st.Pack.Misses-cs.start.Pack.Hits-cs.start.Pack.Misses),
	}
	if writes+failures > 0 {
		m["farm.replica_failure_ratio"] = failures / (writes + failures)
	}

	// Simulator split per sweep: the fused run with a warm pack cache
	// minus the MAERI rows' analytic dry runs, and the packing a fresh
	// pack cache costs on top.
	sim := newTracer()
	sim.op(0, 0)
	var sample farm.Result
	var sampleKey string
	for _, req := range cs.lastReqs {
		job, err := req.Job()
		if err != nil {
			return nil, err
		}
		warm := tensor.NewPackCache(tensor.DefaultPackCacheEntries, tensor.DefaultPackCacheBytes)
		if _, err := farm.Run(job.WithPackCache(warm)); err != nil {
			return nil, err
		}
		var res farm.Result
		sim.time("warm", func() { res, err = farm.Run(job.WithPackCache(warm)) })
		if err != nil {
			return nil, err
		}
		fresh := tensor.NewPackCache(tensor.DefaultPackCacheEntries, tensor.DefaultPackCacheBytes)
		sim.time("fresh", func() { _, err = farm.Run(job.WithPackCache(fresh)) })
		if err != nil {
			return nil, err
		}
		if job.HW.Controller == config.MAERIDenseWorkload {
			dry := job
			dry.DryRun = true
			sim.time("dry", func() { _, err = farm.Run(dry) })
			if err != nil {
				return nil, err
			}
		}
		if sampleKey == "" {
			if sampleKey, err = job.Key(); err != nil {
				return nil, err
			}
			sample = res
		}
	}
	m["stonne.analytic_ms"] = sim.perOp("dry", ms)
	m["stonne.fused_ms"] = sim.perOp("warm", ms) - sim.perOp("dry", ms)
	m["tensor.pack_ms"] = sim.perOp("fresh", ms) - sim.perOp("warm", ms)

	// Peer hop: the same cached row through the coordinator and straight
	// from the worker that owns it.
	var hops []float64
	for k := 0; k < clusterSampledRows && k < len(cs.last); k++ {
		owner, ok := cs.nodes[cs.last[k].Peer]
		if !ok {
			return nil, fmt.Errorf("row %s: unknown peer %q", cs.cells[k], cs.last[k].Peer)
		}
		var viaCoord, direct []float64
		for rep := 0; rep < clusterSamples; rep++ {
			d1, err := cs.roundTrip(cs.coord.url, bodies[k])
			if err != nil {
				return nil, err
			}
			d2, err := cs.roundTrip(owner.url, bodies[k])
			if err != nil {
				return nil, err
			}
			viaCoord = append(viaCoord, float64(d1)/float64(ms))
			direct = append(direct, float64(d2)/float64(ms))
		}
		hops = append(hops, median(viaCoord)-median(direct))
	}
	m["farm.peer_hop_ms"] = median(hops)

	// Peer wire protocol and disk persist of one sampled result.
	wire := newTracer()
	ps := farm.NewPeerStore(cs.nodes["w1"].url)
	ds, err := farm.NewDiskStore(cs.r.tmp+"/persist", 0)
	if err != nil {
		return nil, err
	}
	for rep := 0; rep < clusterSamples; rep++ {
		var perr error
		wire.time("put", func() { perr = ps.PutErr(sampleKey, sample) })
		if perr != nil {
			return nil, perr
		}
		var ok bool
		wire.time("get", func() { _, ok, perr = ps.GetErr(sampleKey) })
		if perr != nil || !ok {
			return nil, fmt.Errorf("peer get of %s: ok=%v err=%v", sampleKey, ok, perr)
		}
		wire.time("persist", func() { perr = ds.PutErr(sampleKey, sample) })
		if perr != nil {
			return nil, perr
		}
	}
	m["farm.peer_put_ms"] = wire.perCall("put", ms)
	m["farm.peer_get_ms"] = wire.perCall("get", ms)
	m["farm.persist_ms"] = wire.perCall("persist", ms)

	// The sweep's rows run on two nodes at once, so the summed layer time
	// can exceed the sweep's wall time and uncovered time can go negative.
	m["trace.uncovered_ms"] = tr.uncoveredMS() - m["serve.compile_ms"] - m["farm.key_ms"] -
		m["stonne.analytic_ms"] - m["stonne.fused_ms"] - m["tensor.pack_ms"]
	return m, nil
}

func (cs *clusterSweep) children() []*child {
	var out []*child
	for _, c := range []*child{cs.coord, cs.nodes["w1"], cs.nodes["w2"]} {
		if c != nil {
			out = append(out, c)
		}
	}
	return out
}

func (cs *clusterSweep) close() {
	for _, c := range cs.children() {
		c.stop()
	}
}
