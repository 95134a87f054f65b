package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/tensor"
)

// goldenFile holds one workload's recorded results, keyed by a name the
// workload chooses. In record mode check stores instead of comparing.
type goldenFile struct {
	path       string
	record     bool
	mu         sync.Mutex
	entries    map[string]string
	mismatches int
}

// goldenMismatch is the error check returns when a result differs from its
// golden.
type goldenMismatch struct{ key, got, want string }

func (e *goldenMismatch) Error() string {
	return fmt.Sprintf("golden %s mismatch:\n  got  %s\n  want %s", e.key, e.got, e.want)
}

// isMismatch reports whether err is a golden mismatch rather than a failure
// to produce a result at all.
func isMismatch(err error) bool {
	var m *goldenMismatch
	return errors.As(err, &m)
}

func loadGolden(root, workload string, record bool) (*goldenFile, error) {
	g := &goldenFile{
		path:    filepath.Join(root, "perfbench", "golden", workload+".json"),
		record:  record,
		entries: make(map[string]string),
	}
	if record {
		return g, nil
	}
	b, err := os.ReadFile(g.path)
	if err != nil {
		return nil, fmt.Errorf("reading goldens: %w", err)
	}
	if err := json.Unmarshal(b, &g.entries); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", g.path, err)
	}
	return g, nil
}

// check compares got with the golden recorded under key.
func (g *goldenFile) check(key, got string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.record {
		if prev, ok := g.entries[key]; ok && prev != got {
			return fmt.Errorf("golden %s: two different values while recording:\n  %s\n  %s", key, prev, got)
		}
		g.entries[key] = got
		return nil
	}
	want, ok := g.entries[key]
	if !ok {
		return fmt.Errorf("golden %s: not recorded", key)
	}
	if want != got {
		g.mismatches++
		return &goldenMismatch{key, got, want}
	}
	return nil
}

// mismatchCount is how many checks have failed so far.
func (g *goldenFile) mismatchCount() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.mismatches
}

// lookup returns the golden recorded under key, if any.
func (g *goldenFile) lookup(key string) (string, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	v, ok := g.entries[key]
	return v, ok
}

func (g *goldenFile) save() error {
	if err := os.MkdirAll(filepath.Dir(g.path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(g.entries, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(g.path, append(b, '\n'), 0o644)
}

// canonicalJSON re-encodes a JSON object with sorted keys and the named
// keys removed, keeping numbers exactly as they were written.
func canonicalJSON(raw []byte, drop ...string) (string, error) {
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.UseNumber()
	var m map[string]any
	if err := dec.Decode(&m); err != nil {
		return "", err
	}
	for _, k := range drop {
		delete(m, k)
	}
	b, err := json.Marshal(m)
	return string(b), err
}

// checksum is a short content hash of a tensor's float bits.
func checksum(t *tensor.Tensor) string {
	h := sha256.New()
	tensor.WriteFloatBits(h, t.Data())
	return hex.EncodeToString(h.Sum(nil))[:16]
}
