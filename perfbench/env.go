package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"repro/internal/tensor"
)

// environment describes the machine, toolchain and code a result came from.
func environment(root string, seed int64, workload string) map[string]any {
	model, mhz, flags := cpuInfo()
	simd := "none"
	switch {
	case flags["avx512f"]:
		simd = "AVX-512F"
	case flags["avx2"]:
		simd = "AVX2"
	}
	commit := "unknown"
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	return map[string]any{
		"workload":      workload,
		"seed":          seed,
		"cpu_model":     model,
		"cpu_mhz":       mhz,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"simd":          simd,
		"kernel_simd":   tensor.SIMDLevel(),
		"go_version":    runtime.Version(),
		"commit":        commit,
		"source_sha256": sourceHash(root),
	}
}

func cpuInfo() (model, mhz string, flags map[string]bool) {
	flags = make(map[string]bool)
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown", "unknown", flags
	}
	for _, line := range strings.Split(string(b), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		switch {
		case k == "model name" && model == "":
			model = v
		case k == "cpu MHz" && mhz == "":
			mhz = v
		case k == "flags" && len(flags) == 0:
			for _, f := range strings.Fields(v) {
				flags[f] = true
			}
		}
	}
	return model, mhz, flags
}

// sourceHash identifies the code under test when the checkout carries no
// git metadata: a hash over every Go source, go.mod and golden file.
func sourceHash(root string) string {
	var files []string
	filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if n := d.Name(); n == ".git" || n == ".bench_build" {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" || strings.HasPrefix(p, filepath.Join(root, "perfbench")) {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
