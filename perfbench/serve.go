package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/farm"
	"repro/internal/models"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// serveReplayRounds is how many times the traced run replays the request
// path of every distinct request in-process.
const serveReplayRounds = 3

// hitArchs are the architectures of the serve_hits requests.
var hitArchs = []struct {
	name string
	spec serve.ArchSpec
}{
	{"maeri", serve.ArchSpec{Controller: "maeri"}},
	{"sigma50", serve.ArchSpec{Controller: "sigma", Sparsity: 50}},
	{"tpu", serve.ArchSpec{Controller: "tpu"}},
}

// convRequest is a /simulate request for one AlexNet convolution.
func convRequest(l models.LayerSpec, arch serve.ArchSpec, seed int64) serve.JobRequest {
	c := l.Conv
	return serve.JobRequest{Arch: arch, Op: "conv2d", Seed: seed,
		Conv: &serve.ConvSpec{C: c.C, H: c.H, W: c.W, K: c.K, R: c.R, S: c.S, G: c.G, Stride: c.StrideH, Pad: c.PadH}}
}

// httpClient returns a client that keeps at most conns connections to a
// host open.
func httpClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, DisableCompression: true},
		Timeout:   2 * time.Minute,
	}
}

// post sends body to url and returns the response body, failing on any
// status but 200.
func post(client *http.Client, url, contentType string, body []byte) ([]byte, error) {
	resp, err := client.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return raw, fmt.Errorf("%s: HTTP %d: %s", url, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return raw, nil
}

// getJSON decodes a GET response into v.
func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// serveHits is one POST /simulate per operation from two clients to one
// bifrost-serve -workers 2, cycling a seeded order over 15 distinct
// requests that set-up has already cached, so every request is a hit.
type serveHits struct {
	r      *runEnv
	srv    *child
	client *http.Client
	names  []string
	reqs   []serve.JobRequest
	bodies [][]byte
	order  []int
	start  farm.Stats
}

func setupServeHits(r *runEnv) (workload, error) {
	s := &serveHits{r: r, client: httpClient(2)}
	for li, l := range models.AlexNetLayers()[:5] {
		for ai, a := range hitArchs {
			req := convRequest(l, a.spec, int64(7000+10*li+ai))
			body, err := json.Marshal(req)
			if err != nil {
				return nil, err
			}
			s.names = append(s.names, l.Name+"/"+a.name)
			s.reqs = append(s.reqs, req)
			s.bodies = append(s.bodies, body)
		}
	}
	s.order = permutation(r.seed, len(s.reqs))
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	s.srv, err = startServe(r, "serve", port, "-workers", "2",
		"-cache-max-entries", "64", "-cache-max-bytes", strconv.Itoa(256<<20))
	if err != nil {
		return nil, err
	}
	// Warm every request (a miss), then check it answers from the cache.
	// A golden mismatch is counted, not fatal.
	for k := range s.reqs {
		for pass := 0; pass < 2; pass++ {
			if _, err := s.simulate(k, pass == 1); err != nil && !isMismatch(err) {
				s.close()
				return nil, fmt.Errorf("warming %s: %w", s.names[k], err)
			}
		}
	}
	if err := getJSON(s.client, s.srv.url+"/stats", &s.start); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// simulate posts request k and checks the response against its golden,
// timing and trace fields removed. It returns the server-side elapsed_ms.
func (s *serveHits) simulate(k int, wantCached bool) (float64, error) {
	raw, err := post(s.client, s.srv.url+"/simulate", "application/json", s.bodies[k])
	if err != nil {
		return 0, err
	}
	var resp struct {
		Cached    bool    `json:"cached"`
		ElapsedMS float64 `json:"elapsed_ms"`
	}
	if err := json.Unmarshal(raw, &resp); err != nil {
		return 0, err
	}
	if wantCached && !resp.Cached {
		return 0, fmt.Errorf("%s: not answered from the cache", s.names[k])
	}
	canon, err := canonicalJSON(raw, "elapsed_ms", "trace", "cached")
	if err != nil {
		return 0, err
	}
	return resp.ElapsedMS, s.r.golden.check("response/"+s.names[k], canon)
}

func (s *serveHits) op(_, i int) error {
	_, err := s.simulate(s.order[i%len(s.order)], true)
	return err
}

// traced times the client round trip and charges the part the server's
// own elapsed_ms does not cover to serve.http.
func (s *serveHits) traced(_, i int, tr *tracer) error {
	start := time.Now()
	elapsed, err := s.simulate(s.order[i%len(s.order)], true)
	wall := time.Since(start)
	local := wall - time.Duration(elapsed*float64(time.Millisecond))
	tr.add("serve.http", local)
	tr.op(wall, local)
	return err
}

// replay runs the request path of a hit in-process, call by call, against
// a local farm holding the same results: decode, compile (operand
// generation and pruning, also timed on their own), key, lookup, encode.
func (s *serveHits) replay(tr *tracer) (map[string]float64, error) {
	var st farm.Stats
	if err := getJSON(s.client, s.srv.url+"/stats", &st); err != nil {
		return nil, err
	}
	rt, err := replayRequests(s.bodies, s.order, serveReplayRounds, true)
	if err != nil {
		return nil, err
	}
	ms, us := time.Millisecond, time.Microsecond
	m := map[string]float64{
		"serve.decode_us":  rt.perOp("decode", us),
		"serve.compile_ms": rt.perOp("compile", ms),
		"tensor.gen_ms":    rt.perOp("gen", ms),
		"tensor.prune_ms":  rt.perOp("prune", ms),
		"farm.key_ms":      rt.perOp("key", ms),
		"farm.lookup_us":   rt.perOp("lookup", us),
		"serve.encode_us":  rt.perOp("encode", us),
		"serve.http_ms":    tr.perOp("serve.http", ms),
		"farm.hit_ratio":   ratio(st.Hits-s.start.Hits, st.Submitted-s.start.Submitted),
		"farm.dedup_ratio": ratio(st.Deduped-s.start.Deduped, st.Submitted-s.start.Submitted),
		"tensor.pack_hit_ratio": ratio(st.Pack.Hits-s.start.Pack.Hits,
			st.Pack.Hits+st.Pack.Misses-s.start.Pack.Hits-s.start.Pack.Misses),
	}
	m["trace.uncovered_ms"] = tr.uncoveredMS() - m["serve.compile_ms"] - m["farm.key_ms"] - m["farm.lookup_us"]/1000
	return m, nil
}

// replayRequests times, per request and in the given order, the calls a
// bifrost-serve node makes on a request: json.Unmarshal into JobRequest,
// JobRequest.Job, Job.Key and, with lookup, Farm.CacheGet and json.Marshal
// of the response. tensor.RandomUniform and tensor.Prune are timed again on
// their own for the same operands. Each round counts one operation per
// request.
func replayRequests(bodies [][]byte, order []int, rounds int, lookup bool) (*tracer, error) {
	fm := farm.New(2, farm.WithMaxEntries(len(bodies)))
	defer fm.Close()
	if lookup {
		for _, body := range bodies {
			var req serve.JobRequest
			if err := json.Unmarshal(body, &req); err != nil {
				return nil, err
			}
			job, err := req.Job()
			if err != nil {
				return nil, err
			}
			if _, err := fm.Do(job); err != nil {
				return nil, err
			}
		}
	}
	rt := newTracer()
	for round := 0; round < rounds; round++ {
		for _, k := range order {
			rt.op(0, 0)
			var req serve.JobRequest
			var err error
			rt.time("decode", func() { err = json.Unmarshal(bodies[k], &req) })
			if err != nil {
				return nil, err
			}
			var job farm.Job
			rt.time("compile", func() { job, err = req.Job() })
			if err != nil {
				return nil, err
			}
			timeOperands(rt, req, job)
			var key string
			rt.time("key", func() { key, err = job.Key() })
			if err != nil {
				return nil, err
			}
			if !lookup {
				continue
			}
			var res farm.Result
			var ok bool
			rt.time("lookup", func() { res, ok = fm.CacheGet(key) })
			if !ok {
				return nil, fmt.Errorf("replay: cached result for %s missing", key)
			}
			resp := serve.JobResponse{Key: key, Cached: true, Stats: &res.Stats, OutputShape: res.Out.Shape()}
			for _, v := range res.Out.Data() {
				resp.OutputSum += float64(v)
			}
			rt.time("encode", func() { _, err = json.Marshal(resp) })
			if err != nil {
				return nil, err
			}
		}
	}
	return rt, nil
}

// timeOperands repeats JobRequest.Job's operand generation and pruning for
// a conv request with timing around each call.
func timeOperands(rt *tracer, req serve.JobRequest, job farm.Job) {
	if req.DryRun || job.Kind != farm.Conv2D {
		return
	}
	d := job.Dims
	rt.time("gen", func() {
		tensor.RandomUniform(req.Seed, 1, d.N, d.C, d.H, d.W)
	})
	var kernel *tensor.Tensor
	rt.time("gen", func() { kernel = tensor.RandomUniform(req.Seed+100, 1, d.K, d.C/d.G, d.R, d.S) })
	if job.HW.SparsityRatio > 0 {
		rt.time("prune", func() { tensor.Prune(kernel, float64(job.HW.SparsityRatio)/100) })
	}
}

func (s *serveHits) verify() error      { return nil }
func (s *serveHits) children() []*child { return []*child{s.srv} }
func (s *serveHits) close() {
	if s.srv != nil {
		s.srv.stop()
	}
}
