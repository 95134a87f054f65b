package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/farm"
	"repro/internal/models"
	"repro/internal/telemetry"
)

// memoRequests covers every request shape the memo must key correctly:
// each controller with defaulted n/g/w/s, dense, dry runs and explicit
// mappings, plus variants that each change one key-relevant field of a
// base request.
func memoRequests() map[string]JobRequest {
	conv := func(c ConvSpec) *ConvSpec { return &c }
	dense := func(d DenseSpec) *DenseSpec { return &d }
	maeri := ArchSpec{Controller: "maeri"}
	base := JobRequest{Arch: maeri, Op: "conv2d", Conv: conv(ConvSpec{C: 2, H: 10, K: 4, R: 3}), Seed: 1}
	reqs := map[string]JobRequest{
		"maeri":         base,
		"sigma50":       {Arch: ArchSpec{Controller: "sigma", Sparsity: 50}, Op: "conv2d", Conv: conv(ConvSpec{C: 2, H: 10, K: 4, R: 3}), Seed: 1},
		"sigma":         {Arch: ArchSpec{Controller: "sigma"}, Op: "conv2d", Conv: conv(ConvSpec{C: 2, H: 10, K: 4, R: 3}), Seed: 1},
		"tpu":           {Arch: ArchSpec{Controller: "tpu"}, Op: "conv2d", Conv: conv(ConvSpec{C: 2, H: 10, K: 4, R: 3}), Seed: 1},
		"grouped":       {Arch: maeri, Op: "conv2d", Conv: conv(ConvSpec{N: 2, C: 4, H: 9, W: 11, K: 4, R: 3, S: 2, G: 2, Stride: 2, Pad: 1}), Seed: 1},
		"mapping":       {Arch: maeri, Op: "conv2d", Conv: conv(ConvSpec{C: 2, H: 10, K: 4, R: 3}), Mapping: []int{3, 3, 1, 2, 1, 1, 1, 1}, Seed: 1},
		"dry":           {Arch: maeri, Op: "conv2d", Conv: conv(ConvSpec{C: 2, H: 10, K: 4, R: 3}), Seed: 1, DryRun: true},
		"dry-mapping":   {Arch: maeri, Op: "conv2d", Conv: conv(ConvSpec{C: 2, H: 10, K: 4, R: 3}), Mapping: []int{3, 3, 2, 2, 1, 1, 1, 1}, Seed: 1, DryRun: true},
		"dense":         {Arch: maeri, Op: "dense", Dense: dense(DenseSpec{K: 64, N: 32}), Seed: 1},
		"dense-sigma50": {Arch: ArchSpec{Controller: "sigma", Sparsity: 50}, Op: "dense", Dense: dense(DenseSpec{M: 2, K: 64, N: 32}), Seed: 1},
		"dense-mapping": {Arch: maeri, Op: "dense", Dense: dense(DenseSpec{K: 64, N: 32}), FCMapping: []int{4, 8, 1}, Seed: 1},
		"dense-dry":     {Arch: maeri, Op: "dense", Dense: dense(DenseSpec{K: 64, N: 32}), FCMapping: []int{4, 8, 1}, Seed: 1, DryRun: true},
	}
	vary := func(name string, edit func(r *JobRequest)) {
		r := base
		c := *base.Conv
		r.Conv = &c
		edit(&r)
		reqs["base+"+name] = r
	}
	vary("seed", func(r *JobRequest) { r.Seed = 2 })
	vary("ms_size", func(r *JobRequest) { r.Arch.MSSize = 64 })
	vary("dn_bw", func(r *JobRequest) { r.Arch.DNBw = 32 })
	vary("rn_bw", func(r *JobRequest) { r.Arch.RNBw = 32 })
	vary("n", func(r *JobRequest) { r.Conv.N = 2 })
	vary("c", func(r *JobRequest) { r.Conv.C = 4 })
	vary("h", func(r *JobRequest) { r.Conv.H = 11 })
	vary("w", func(r *JobRequest) { r.Conv.W = 12 })
	vary("k", func(r *JobRequest) { r.Conv.K = 6 })
	vary("r", func(r *JobRequest) { r.Conv.R = 5 })
	vary("s", func(r *JobRequest) { r.Conv.S = 1 })
	vary("g", func(r *JobRequest) { r.Conv.G = 2 })
	vary("stride", func(r *JobRequest) { r.Conv.Stride = 2 })
	vary("pad", func(r *JobRequest) { r.Conv.Pad = 1 })
	vary("mapping", func(r *JobRequest) { r.Mapping = []int{1, 3, 1, 2, 1, 1, 1, 1} })
	return reqs
}

// jobKeys keys every request the memo-free way, req.Job() → Key(), and
// checks the keys are pairwise distinct.
func jobKeys(t *testing.T, reqs map[string]JobRequest) map[string]string {
	t.Helper()
	want := make(map[string]string, len(reqs))
	owner := make(map[string]string, len(reqs))
	for name, req := range reqs {
		job, err := req.Job()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want[name], err = job.Key(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if other, dup := owner[want[name]]; dup {
			t.Fatalf("%s and %s share a key; the table must keep keys distinct", name, other)
		}
		owner[want[name]] = name
	}
	return want
}

// TestKeyMemoMatchesJobKey proves the memo never changes a key: through a
// cold memo and a warm one, via the key helper and via the full request
// path, every request keys exactly as req.Job() → Key() does — and since
// those keys are pairwise distinct, no request ever reuses another's entry.
func TestKeyMemoMatchesJobKey(t *testing.T) {
	reqs := memoRequests()
	want := jobKeys(t, reqs)

	fm := farm.New(2)
	defer fm.Close()
	memos := []string{"cold", "warm"}
	s := NewServer(fm)
	defer s.Close()
	for _, memo := range memos {
		for name, req := range reqs {
			if _, key, err := s.jobKey(req); err != nil || key != want[name] {
				t.Errorf("%s memo, %s: jobKey = %q, %v; want %q", memo, name, key, err, want[name])
			}
		}
	}
	// The request path: a fresh server records keys on its miss path, then
	// answers every request from the memo and the memory tier.
	s = NewServer(fm)
	defer s.Close()
	for _, memo := range memos {
		for name, req := range reqs {
			resp := s.run(context.Background(), req)
			if resp.Error != "" || resp.Key != want[name] || resp.Cached != (memo == "warm") {
				t.Errorf("%s memo, %s: run key %q cached %v (error %q), want %q",
					memo, name, resp.Key, resp.Cached, resp.Error, want[name])
			}
		}
	}
}

// TestKeyMemoConcurrent drives the memo from several goroutines at once —
// the /batch fan-out shape — through both the request path and the key
// helper, on a memo small enough to evict constantly.
func TestKeyMemoConcurrent(t *testing.T) {
	reqs := memoRequests()
	want := jobKeys(t, reqs)
	fm := farm.New(2)
	defer fm.Close()
	s := NewServer(fm)
	defer s.Close()
	s.keys = newKeyMemo(4)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for name, req := range reqs {
					if resp := s.run(context.Background(), req); resp.Key != want[name] {
						t.Errorf("%s: run key %q (error %q), want %q", name, resp.Key, resp.Error, want[name])
					}
					if _, key, err := s.jobKey(req); err != nil || key != want[name] {
						t.Errorf("%s: jobKey %q, %v, want %q", name, key, err, want[name])
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestKeyMemoBounded pins the memo's LRU bound: the least recently used
// descriptor is the one evicted.
func TestKeyMemoBounded(t *testing.T) {
	m := newKeyMemo(2)
	d := func(seed int64) memoKey { return memoKey{seed: seed} }
	m.put(d(1), "a")
	m.put(d(2), "b")
	m.get(d(1))
	m.put(d(3), "c")
	if _, ok := m.get(d(2)); ok {
		t.Error("least recently used entry survived past the bound")
	}
	for seed, key := range map[int64]string{1: "a", 3: "c"} {
		if got, ok := m.get(d(seed)); !ok || got != key {
			t.Errorf("entry %d = %q, %v; want %q", seed, got, ok, key)
		}
	}
}

func postSimulate(t *testing.T, h http.Handler, body string) (int, JobResponse) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/simulate", strings.NewReader(body)))
	var resp JobResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding %q: %v", rec.Body.String(), err)
	}
	return rec.Code, resp
}

// TestMemoHitsCountAsFarmHits checks that requests answered through the
// memo keep the farm's accounting: every one is a submission and a hit,
// none a miss, and a traced one is echoed and recorded in the ring.
func TestMemoHitsCountAsFarmHits(t *testing.T) {
	ring := telemetry.NewTraceRing(16)
	fm := farm.New(2, farm.WithTraceRing(ring))
	defer fm.Close()
	s := NewServer(fm)
	defer s.Close()
	if code, resp := postSimulate(t, s, convBody); code != http.StatusOK || resp.Cached {
		t.Fatalf("warming request: status %d, cached %v, error %q", code, resp.Cached, resp.Error)
	}
	before, traces := fm.Stats(), ring.Total()
	const hits = 5
	for i := 0; i < hits; i++ {
		code, resp := postSimulate(t, s, convBody)
		if code != http.StatusOK || !resp.Cached {
			t.Fatalf("hit %d: status %d, cached %v, error %q", i, code, resp.Cached, resp.Error)
		}
	}
	traced := strings.Replace(convBody, `"seed": 1`, `"seed": 1, "trace": true`, 1)
	code, resp := postSimulate(t, s, traced)
	if code != http.StatusOK || resp.Trace == nil || resp.Trace.Source != "memory" {
		t.Fatalf("traced hit: status %d, trace %+v", code, resp.Trace)
	}
	after := fm.Stats()
	submitted, hitCount := after.Submitted-before.Submitted, after.Hits-before.Hits
	if submitted != hits+1 || hitCount != submitted || after.Misses != before.Misses {
		t.Errorf("over %d memo hits: submitted %d, hits %d, misses %d → %d",
			hits+1, submitted, hitCount, before.Misses, after.Misses)
	}
	if got := ring.Total() - traces; got != 1 {
		t.Errorf("traced hit recorded %d traces in the ring, want 1", got)
	}
}

// TestMemoHitAllocsIndependentOfOperands pins the point of the memo: once
// a request is known, answering it allocates the same small amount whether
// it is AlexNet conv1 (0.19M operand elements, a 1.2 MB output) or conv5.
func TestMemoHitAllocsIndependentOfOperands(t *testing.T) {
	fm := farm.New(2)
	defer fm.Close()
	s := NewServer(fm)
	defer s.Close()
	layers := models.AlexNetLayers()
	perHit := make(map[string]float64)
	for _, l := range []models.LayerSpec{layers[0], layers[4]} {
		c := l.Conv
		req := JobRequest{Arch: ArchSpec{Controller: "maeri"}, Op: "conv2d", Seed: 7,
			Conv: &ConvSpec{C: c.C, H: c.H, W: c.W, K: c.K, R: c.R, S: c.S, G: c.G, Stride: c.StrideH, Pad: c.PadH}}
		if resp := s.run(context.Background(), req); resp.Error != "" {
			t.Fatalf("%s: %s", l.Name, resp.Error)
		}
		const n = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			if resp := s.run(context.Background(), req); !resp.Cached {
				t.Fatalf("%s: repeated request missed the cache", l.Name)
			}
		}
		runtime.ReadMemStats(&after)
		perHit[l.Name] = float64(after.TotalAlloc-before.TotalAlloc) / n
	}
	const limit = 16 << 10
	for name, b := range perHit {
		if b > limit {
			t.Errorf("%s memo hit allocates %.0f B, want under %d (operand-independent)", name, b, limit)
		}
	}
	t.Logf("bytes per memo hit: %v", perHit)
}

// TestOversizedOperandsRejected sends the request that used to exhaust a
// node's memory in operand generation: it must be refused as invalid
// before anything of its size is allocated.
func TestOversizedOperandsRejected(t *testing.T) {
	fm := farm.New(1)
	defer fm.Close()
	s := NewServer(fm)
	defer s.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	code, resp := postSimulate(t, s, `{"op":"dense","dense":{"k":2147483648,"n":2147483648}}`)
	runtime.ReadMemStats(&after)
	if code != http.StatusUnprocessableEntity || resp.Code != "invalid" {
		t.Fatalf("status %d code %q error %q, want 422 invalid", code, resp.Code, resp.Error)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("rejecting the request allocated %d bytes", grew)
	}
	for _, body := range []string{
		`{"op":"conv2d","conv":{"n":4096,"c":4096,"h":4096,"k":1,"r":1}}`,
		`{"op":"dense","dense":{"m":-1,"k":4,"n":4}}`,
	} {
		if code, resp := postSimulate(t, s, body); code != http.StatusUnprocessableEntity {
			t.Errorf("%s: status %d (error %q), want 422", body, code, resp.Error)
		}
	}
	if st := fm.Stats(); st.Submitted != 0 {
		t.Errorf("rejected requests reached the farm: %d submissions", st.Submitted)
	}
}

// TestOversizedBodiesRejected checks the request-body limits: 413 once a
// /simulate or /batch body outgrows its bound.
func TestOversizedBodiesRejected(t *testing.T) {
	fm := farm.New(1)
	defer fm.Close()
	s := NewServer(fm)
	defer s.Close()
	pad := strings.Repeat(" ", maxSimulateBody)
	if code, _ := postSimulate(t, s, `{"op":"dense",`+pad+`"dense":{"k":4,"n":4}}`); code != http.StatusRequestEntityTooLarge {
		t.Errorf("/simulate over its limit: status %d, want 413", code)
	}
	// Rows padded with whitespace stay few while the body outgrows the
	// limit, so the test decodes little.
	row := `{"op":"dense",` + strings.Repeat(" ", 512<<10) + `"dense":{"k":4,"n":4}}`
	bodies := map[string]string{
		"application/x-ndjson": strings.Repeat(row+"\n", maxBatchBody/len(row)+1),
		"application/json":     `{"jobs":[` + strings.Repeat(row+",", maxBatchBody/len(row)+1) + row + `]}`,
	}
	for ctype, body := range bodies {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/batch", strings.NewReader(body))
		req.Header.Set("Content-Type", ctype)
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("/batch (%s) over its limit: status %d, want 413", ctype, rec.Code)
		}
	}
	if st := fm.Stats(); st.Submitted != 0 {
		t.Errorf("oversized bodies reached the farm: %d submissions", st.Submitted)
	}
}
