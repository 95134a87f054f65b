package serve

import (
	"container/list"
	"sync"

	"repro/internal/farm"
	"repro/internal/stonne/config"
	"repro/internal/stonne/mapping"
	"repro/internal/tensor"
)

// keyMemoEntries bounds the descriptor → key memo. An entry costs about
// 1 KiB (the 400-byte descriptor is held by both the map and the LRU list,
// plus the 64-byte key), so a full memo stays around 4 MiB.
const keyMemoEntries = 4096

// memoKey is everything Job.Key() hashes of a compiled, operand-free job.
// Request operands are a deterministic function of the seed, the geometry
// and the sparsity ratio, all of which are part of it, so two jobs with
// equal descriptors always have equal content keys.
type memoKey struct {
	hw      config.HWConfig
	kind    farm.Kind
	layout  tensor.Layout
	dims    tensor.ConvDims
	conv    mapping.ConvMapping
	fc      mapping.FCMapping
	m, k, n int
	seed    int64
	dryRun  bool
}

func memoKeyOf(j farm.Job) memoKey {
	return memoKey{hw: j.HW.Normalize(), kind: j.Kind, layout: j.Layout, dims: j.Dims,
		conv: j.ConvMapping, fc: j.FCMapping, m: j.M, k: j.K, n: j.N, seed: j.Seed, dryRun: j.DryRun}
}

// keyMemo is a bounded LRU map from request descriptor to the content key
// the server last computed for it. It lets a repeated request find its cache
// entry without generating or hashing operands. Safe for concurrent use.
type keyMemo struct {
	mu    sync.Mutex
	max   int
	items map[memoKey]*list.Element
	order list.List // of *memoEntry, most recently used first
}

type memoEntry struct {
	desc memoKey
	key  string
}

func newKeyMemo(max int) *keyMemo {
	return &keyMemo{max: max, items: make(map[memoKey]*list.Element)}
}

// get returns the memoised key of a descriptor.
func (m *keyMemo) get(desc memoKey) (string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.items[desc]
	if !ok {
		return "", false
	}
	m.order.MoveToFront(el)
	return el.Value.(*memoEntry).key, true
}

// put records a descriptor's key, evicting the least recently used entry
// beyond the bound.
func (m *keyMemo) put(desc memoKey, key string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.items[desc]; ok {
		el.Value.(*memoEntry).key = key
		m.order.MoveToFront(el)
		return
	}
	m.items[desc] = m.order.PushFront(&memoEntry{desc: desc, key: key})
	if m.order.Len() > m.max {
		oldest := m.order.Back()
		m.order.Remove(oldest)
		delete(m.items, oldest.Value.(*memoEntry).desc)
	}
}
