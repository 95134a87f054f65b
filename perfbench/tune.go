package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/autotune"
	"repro/internal/farm"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/stonne/config"
)

// Tuning settings of one pass: the paper's AutoTVM XGB tuner with the
// defaults of bifrost.TuneOptions and a fixed tuner seed.
const (
	tuneTrials    = 600
	tuneEarlyStop = 120
	tuneSeed      = 1
)

// tuneNames are AlexNet's network layer names for models.AlexNetLayers.
var tuneNames = []string{"conv1", "conv2", "conv3", "conv4", "conv5", "fc6", "fc7", "fc8"}

// tuneAlexNet is one cycles-target tuning pass over all 8 AlexNet layers on
// MAERI-128 per operation, each layer through the XGB tuner with farm
// cycle measurers on a fresh 2-worker farm.
type tuneAlexNet struct {
	r      *runEnv
	cfg    config.HWConfig
	layers []models.LayerSpec

	// replayJobs are the dry-run jobs the first traced pass measured.
	replayJobs []farm.Job
}

func setupTune(r *runEnv) (workload, error) {
	t := &tuneAlexNet{r: r, cfg: config.Default(config.MAERIDenseWorkload), layers: models.AlexNetLayers()}
	if len(t.layers) != len(tuneNames) {
		return nil, fmt.Errorf("tune: %d AlexNet layers, want %d", len(t.layers), len(tuneNames))
	}
	for _, l := range t.layers {
		if l.Op == graph.OpConv2D {
			if _, err := autotune.ConvMappingSpace(l.Conv, t.cfg.MSSize); err != nil {
				return nil, err
			}
		}
	}
	if r.record {
		if err := t.op(0, 0); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func (t *tuneAlexNet) op(_, i int) error {
	_, err := t.pass(i, nil, false)
	return err
}

// traced runs a pass with the farm measurers wrapped. The dry-run jobs of
// the first traced pass are kept for replay.
func (t *tuneAlexNet) traced(_, i int, tr *tracer) error {
	start := time.Now()
	covered, err := t.pass(i, tr, t.replayJobs == nil)
	tr.op(time.Since(start), covered)
	return err
}

// pass tunes every layer, in an order drawn from the operation's seed, and
// checks each layer's best mapping and cost against the golden. With a
// tracer the farm measurer is wrapped so measure time and the heap it
// allocates are recorded, and with keep the measured dry-run jobs are
// saved for replay. It returns the time the Tune calls took.
func (t *tuneAlexNet) pass(i int, tr *tracer, keep bool) (time.Duration, error) {
	fm := farm.New(2)
	defer fm.Close()
	if tr != nil {
		defer func() {
			st := fm.Stats()
			tr.count("farm.submitted", st.Submitted)
			tr.count("farm.hits", st.Hits)
			tr.count("farm.deduped", st.Deduped)
		}()
	}
	var covered time.Duration
	for _, k := range permutation(opSeed(t.r.seed, i), len(t.layers)) {
		l, name := t.layers[k], tuneNames[k]
		var (
			space   *autotune.Space
			measure autotune.MeasureFunc
			m       autotune.Measurer
			job     func(autotune.Config) (farm.Job, bool)
			err     error
		)
		if l.Op == graph.OpConv2D {
			d := l.Conv
			if space, err = autotune.ConvMappingSpace(d, t.cfg.MSSize); err != nil {
				return 0, err
			}
			measure = autotune.ConvCycleCost(t.cfg, d)
			m = autotune.FarmConvCycleMeasurer(fm, t.cfg, d)
			job = func(c autotune.Config) (farm.Job, bool) {
				mp := autotune.ConvMappingOf(c)
				if mp.Validate(d, t.cfg.MSSize) != nil {
					return farm.Job{}, false
				}
				return farm.Job{HW: t.cfg, Kind: farm.Conv2D, Dims: d, ConvMapping: mp, DryRun: true}, true
			}
		} else {
			space = autotune.FCMappingSpace(l.K, l.N, t.cfg.MSSize)
			measure = autotune.FCCycleCost(t.cfg, l.M, l.K, l.N)
			m = autotune.FarmFCCycleMeasurer(fm, t.cfg, l.M, l.K, l.N)
			job = func(c autotune.Config) (farm.Job, bool) {
				mp := autotune.FCMappingOf(c)
				if mp.Validate(l.M, l.K, l.N, t.cfg.MSSize) != nil {
					return farm.Job{}, false
				}
				return farm.Job{HW: t.cfg, Kind: farm.Dense, FCMapping: mp, M: l.M, K: l.K, N: l.N, DryRun: true}, true
			}
		}
		var tm *tracedMeasurer
		if tr != nil {
			tm = &tracedMeasurer{inner: m, tr: tr, job: job, keep: keep}
			m = tm
		}
		opts := autotune.Options{Trials: tuneTrials, EarlyStopping: tuneEarlyStop, Seed: tuneSeed, Measurer: m}
		start := time.Now()
		res, err := autotune.XGBTuner{}.Tune(space, measure, opts)
		if err != nil {
			return 0, fmt.Errorf("tuning %s: %w", name, err)
		}
		if tm != nil {
			wall := time.Since(start)
			covered += wall
			tr.add("autotune.search", wall-tm.measured)
			tr.count("autotune.trials", int64(len(res.Trials)))
			for _, trial := range res.Trials {
				if trial.Cost.IsInfeasible() {
					tr.count("autotune.infeasible", 1)
				}
			}
			t.replayJobs = append(t.replayJobs, tm.jobs...)
		}
		var best string
		if l.Op == graph.OpConv2D {
			best = autotune.ConvMappingOf(res.Best.Config).String()
		} else {
			best = autotune.FCMappingOf(res.Best.Config).String()
		}
		got := fmt.Sprintf("%s cycles=%.0f", best, res.Best.Cost.Primary)
		if err := t.r.golden.check("best/"+name, got); err != nil {
			return 0, err
		}
	}
	return covered, nil
}

// tracedMeasurer wraps a farm measurer, timing each MeasureBatch and the
// heap bytes allocated inside it, and keeps the batch's dry-run jobs when
// asked to.
type tracedMeasurer struct {
	inner    autotune.Measurer
	tr       *tracer
	job      func(autotune.Config) (farm.Job, bool)
	keep     bool
	jobs     []farm.Job
	measured time.Duration
}

func (m *tracedMeasurer) MeasureBatch(cfgs []autotune.Config) []autotune.Cost {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	costs := m.inner.MeasureBatch(cfgs)
	d := time.Since(start)
	runtime.ReadMemStats(&after)
	m.measured += d
	m.tr.add("autotune.measure", d)
	m.tr.count("autotune.measure_alloc", int64(after.TotalAlloc-before.TotalAlloc))
	if m.keep {
		for _, c := range cfgs {
			if j, ok := m.job(c); ok {
				m.jobs = append(m.jobs, j)
			}
		}
	}
	return costs
}

// replay runs the kept dry-run jobs of one traced pass one at a time
// through Job.Key and farm.Run.
func (t *tuneAlexNet) replay(tr *tracer) (map[string]float64, error) {
	ms := time.Millisecond
	_, ops := tr.total("autotune.measure")
	if ops == 0 {
		return nil, fmt.Errorf("no traced tuning pass completed")
	}
	rt := newTracer()
	rt.op(0, 0)
	for _, j := range t.replayJobs {
		var err error
		rt.time("key", func() { _, err = j.Key() })
		if err != nil {
			return nil, err
		}
		layer := "conv"
		if j.Kind == farm.Dense {
			layer = "dense"
		}
		rt.time(layer, func() { _, err = farm.Run(j) })
		if err != nil {
			return nil, err
		}
	}
	perOp := func(name string) float64 { return float64(tr.counter(name)) / float64(ops) }
	return map[string]float64{
		"autotune.measure_ms":       tr.perOp("autotune.measure", ms),
		"autotune.measure_alloc_mb": perOp("autotune.measure_alloc") / (1 << 20),
		"autotune.search_ms":        tr.perOp("autotune.search", ms),
		"autotune.trials":           perOp("autotune.trials"),
		"autotune.infeasible_ratio": ratio(tr.counter("autotune.infeasible"), tr.counter("autotune.trials")),
		"farm.dry_conv_us":          rt.perCall("conv", time.Microsecond),
		"farm.dry_dense_ms":         rt.perCall("dense", ms),
		"stonne.analytic_ms":        rt.perOp("conv", ms) + rt.perOp("dense", ms),
		"farm.key_ms":               rt.perOp("key", ms),
		"farm.hit_ratio":            ratio(tr.counter("farm.hits"), tr.counter("farm.submitted")),
		"farm.dedup_ratio":          ratio(tr.counter("farm.deduped"), tr.counter("farm.submitted")),
	}, nil
}

func (t *tuneAlexNet) verify() error      { return nil }
func (t *tuneAlexNet) children() []*child { return nil }
func (t *tuneAlexNet) close()             {}
