package main

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/farm"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/mrna"
	"repro/internal/passes"
	"repro/internal/stonne/config"
	"repro/internal/stonne/mapping"
	"repro/internal/tensor"
	"repro/internal/topi"
)

const (
	// alexWeightSeed fixes the model's weights, so output checksums of the
	// golden inputs are stable.
	alexWeightSeed = 42
	// alexFarmEntries bounds the farm's memory tier: about two inferences.
	alexFarmEntries = 16
	// Every alexGoldenEvery-th operation feeds one of the golden inputs and
	// checks the output checksum as well as the per-layer Stats.
	alexGoldenEvery = 8
	// alexReplayOps is how many traced operations get their layer jobs
	// replayed through farm.Run for the stonne/tensor split.
	alexReplayOps = 2
)

// alexGoldenInputs are the input seeds whose output checksums are recorded.
var alexGoldenInputs = []int64{1, 2, 3, 4}

// alexNet is one AlexNet batch-1 inference per operation through
// core.Session on MAERI-128 with mRNA mappings, via a 2-worker farm.
type alexNet struct {
	r        *runEnv
	cfg      config.HWConfig
	g        *graph.Graph
	sess     *core.Session
	fm       *farm.Farm
	convMaps map[string]mapping.ConvMapping
	fcMaps   map[string]mapping.FCMapping
	start    farm.Stats

	mu         sync.Mutex
	replayJobs []farm.Job // layer jobs of the first traced operations
}

func setupAlexNet(r *runEnv) (workload, error) {
	cfg := config.Default(config.MAERIDenseWorkload)
	g := models.AlexNet(alexWeightSeed)
	sess, err := core.NewSession(cfg)
	if err != nil {
		return nil, err
	}
	mapper, err := mrna.NewMapper(cfg, mrna.MinimizeCycles)
	if err != nil {
		return nil, err
	}
	layers, err := models.ExtractLayers(g)
	if err != nil {
		return nil, err
	}
	a := &alexNet{r: r, cfg: cfg, g: g, sess: sess,
		convMaps: make(map[string]mapping.ConvMapping), fcMaps: make(map[string]mapping.FCMapping)}
	for _, l := range layers {
		if l.Op == graph.OpConv2D {
			m, _, err := mapper.MapConv(l.Conv)
			if err != nil {
				return nil, err
			}
			sess.ConvMappings[l.Name], a.convMaps[l.Name] = m, m
		} else {
			m, _, err := mapper.MapFC(l.M, l.K, l.N)
			if err != nil {
				return nil, err
			}
			sess.FCMappings[l.Name], a.fcMaps[l.Name] = m, m
		}
	}
	a.fm = farm.New(2, farm.WithMaxEntries(alexFarmEntries))
	sess.WithFarm(a.fm)
	// Two golden inferences warm the pack cache and check the goldens;
	// recording covers every golden input. A mismatch is counted, not
	// fatal.
	warm := alexGoldenInputs[:2]
	if r.record {
		warm = alexGoldenInputs
	}
	for _, s := range warm {
		if err := a.infer(s, true); err != nil && !isMismatch(err) {
			a.close()
			return nil, err
		}
	}
	a.start = a.fm.Stats()
	return a, nil
}

// input picks operation i's input seed: a fresh one derived from the
// workload seed, or every alexGoldenEvery-th time a golden input.
func (a *alexNet) input(i int) (seed int64, golden bool) {
	if i%alexGoldenEvery == alexGoldenEvery-1 {
		return alexGoldenInputs[(i/alexGoldenEvery)%len(alexGoldenInputs)], true
	}
	return opSeed(a.r.seed, i), false
}

func (a *alexNet) infer(seed int64, golden bool) error {
	in := tensor.RandomUniform(seed, 1, 1, 3, 227, 227)
	outs, err := a.sess.Run(a.g, map[string]*tensor.Tensor{"data": in})
	if err != nil {
		return err
	}
	recs := a.sess.Records()
	if len(recs) != 8 {
		return fmt.Errorf("alexnet: %d offloaded layers, want 8", len(recs))
	}
	for _, rec := range recs {
		if err := a.checkStats(rec.Name, rec.Stats); err != nil {
			return err
		}
	}
	if golden {
		return a.r.golden.check(fmt.Sprintf("output/%d", seed), checksum(outs[0]))
	}
	return nil
}

func (a *alexNet) checkStats(layer string, st any) error {
	b, err := json.Marshal(st)
	if err != nil {
		return err
	}
	return a.r.golden.check("stats/"+layer, string(b))
}

func (a *alexNet) op(_, i int) error { return a.infer(a.input(i)) }

// job builds the farm job core.Session builds for an offloaded node.
func (a *alexNet) job(n *graph.Node, ins []*tensor.Tensor) (farm.Job, error) {
	if n.Op == graph.OpConv2D {
		d, err := graph.ConvDimsOf(n)
		if err != nil {
			return farm.Job{}, err
		}
		return farm.Job{HW: a.cfg, Kind: farm.Conv2D, Layout: n.Attrs.DataLayout, Dims: d,
			ConvMapping: a.convMaps[n.Name], Input: ins[0], Weights: ins[1]}, nil
	}
	return farm.Job{HW: a.cfg, Kind: farm.Dense, FCMapping: a.fcMaps[n.Name], Input: ins[0], Weights: ins[1]}, nil
}

// traced replays the inference through graph.Executor with an offload
// function that times Farm.Do per network layer and the topi CPU operators.
func (a *alexNet) traced(_, i int, tr *tracer) error {
	seed, golden := a.input(i)
	in := tensor.RandomUniform(seed, 1, 1, 3, 227, 227)
	var covered time.Duration
	var jobs []farm.Job
	offload := func(n *graph.Node, ins []*tensor.Tensor) (*tensor.Tensor, bool, error) {
		switch n.Op {
		case graph.OpConv2D, graph.OpDense:
			job, err := a.job(n, ins)
			if err != nil {
				return nil, false, err
			}
			var res farm.Result
			covered += tr.time("net."+n.Name, func() { res, err = a.fm.Do(job) })
			if err != nil {
				return nil, false, err
			}
			jobs = append(jobs, job)
			return res.Out, true, a.checkStats(n.Name, res.Stats)
		case graph.OpInput, graph.OpConstant:
			return nil, false, nil
		}
		var out *tensor.Tensor
		var err error
		handled := true
		covered += tr.time("core.cpu_ops", func() { out, handled, err = cpuOp(n, ins) })
		return out, handled, err
	}
	start := time.Now()
	if err := a.g.Validate(); err != nil {
		return err
	}
	if err := passes.Standard(a.g); err != nil {
		return err
	}
	ex := &graph.Executor{Graph: a.g, Offload: offload}
	outs, err := ex.Run(map[string]*tensor.Tensor{"data": in})
	tr.op(time.Since(start), covered)
	if err != nil {
		return err
	}
	a.mu.Lock()
	if len(a.replayJobs) < alexReplayOps*len(jobs) {
		a.replayJobs = append(a.replayJobs, jobs...)
	}
	a.mu.Unlock()
	if golden {
		return a.r.golden.check(fmt.Sprintf("output/%d", seed), checksum(outs[0]))
	}
	return nil
}

// cpuOp evaluates the CPU-inventory operators AlexNet uses, as
// graph.Executor would.
func cpuOp(n *graph.Node, ins []*tensor.Tensor) (*tensor.Tensor, bool, error) {
	switch n.Op {
	case graph.OpBiasAdd:
		out, err := topi.BiasAdd(ins[0], ins[1])
		return out, true, err
	case graph.OpReLU:
		return topi.ReLU(ins[0]), true, nil
	case graph.OpMaxPool:
		out, err := topi.Pool2D(ins[0], topi.MaxPool, n.Attrs.PoolKernel, n.Attrs.PoolStride, n.Attrs.PoolPad)
		return out, true, err
	case graph.OpLRN:
		out, err := topi.LRN(ins[0], n.Attrs.LRNSize, n.Attrs.LRNAlpha, n.Attrs.LRNBeta, n.Attrs.LRNBias)
		return out, true, err
	case graph.OpSoftmax:
		return topi.Softmax(ins[0]), true, nil
	case graph.OpFlatten:
		return topi.Flatten(ins[0]), true, nil
	case graph.OpDropout:
		return ins[0].Clone(), true, nil
	}
	return nil, false, nil
}

// replay times, for the saved layer jobs, the key hash, a full farm.Run
// with the farm's warm pack cache, the same job as a dry run (analytic
// counters only) and a full run with a fresh pack cache.
func (a *alexNet) replay(tr *tracer) (map[string]float64, error) {
	st := a.fm.Stats()
	rt := newTracer()
	for k, job := range a.replayJobs {
		if k%8 == 0 {
			rt.op(0, 0)
		}
		var err error
		rt.time("key", func() { _, err = job.Key() })
		if err != nil {
			return nil, err
		}
		rt.time("warm", func() { _, err = farm.Run(job.WithPackCache(a.fm.PackCache())) })
		if err != nil {
			return nil, err
		}
		dry := job
		dry.DryRun = true
		if dry.Kind == farm.Dense {
			dry.M, dry.K, dry.N = job.Input.Shape()[0], job.Input.Shape()[1], job.Weights.Shape()[0]
		}
		rt.time("dry", func() { _, err = farm.Run(dry) })
		if err != nil {
			return nil, err
		}
		fresh := tensor.NewPackCache(tensor.DefaultPackCacheEntries, tensor.DefaultPackCacheBytes)
		rt.time("fresh", func() { _, err = farm.Run(job.WithPackCache(fresh)) })
		if err != nil {
			return nil, err
		}
	}
	ms := time.Millisecond
	m := map[string]float64{
		"core.cpu_ops_ms":    tr.perOp("core.cpu_ops", ms),
		"farm.key_ms":        rt.perOp("key", ms),
		"stonne.analytic_ms": rt.perOp("dry", ms),
		"stonne.fused_ms":    rt.perOp("warm", ms) - rt.perOp("dry", ms),
		"tensor.pack_ms":     rt.perOp("fresh", ms) - rt.perOp("warm", ms),
	}
	var doMS float64
	for _, l := range []string{"conv1", "conv2", "conv3", "conv4", "conv5", "fc6", "fc7", "fc8"} {
		v := tr.perCall("net."+l, ms)
		m["net."+l+"_ms"] = v
		doMS += v
	}
	m["farm.overhead_ms"] = doMS - rt.perOp("warm", ms) - rt.perOp("key", ms)
	pack := st.Pack
	m["tensor.pack_hit_ratio"] = ratio(pack.Hits-a.start.Pack.Hits, pack.Hits+pack.Misses-a.start.Pack.Hits-a.start.Pack.Misses)
	m["farm.hit_ratio"] = ratio(st.Hits-a.start.Hits, st.Submitted-a.start.Submitted)
	m["farm.dedup_ratio"] = ratio(st.Deduped-a.start.Deduped, st.Submitted-a.start.Submitted)
	return m, nil
}

func (a *alexNet) verify() error      { return nil }
func (a *alexNet) children() []*child { return nil }
func (a *alexNet) close()             { a.fm.Close() }
