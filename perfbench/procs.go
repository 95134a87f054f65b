package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// child is one bifrost-serve process the benchmark started.
type child struct {
	name  string
	url   string // http://127.0.0.1:port
	pprof string // host:port of the -pprof side port
	cmd   *exec.Cmd
	done  chan struct{} // closed once the process has been waited for
}

var (
	hygieneMu   sync.Mutex
	liveProcs   = map[*child]bool{}
	liveRunDirs []string
)

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServe starts bifrost-serve on the given loopback port with a -pprof
// side port of its own, logging into the run directory, and waits until
// /healthz answers.
func startServe(r *runEnv, name string, port int, args ...string) (*child, error) {
	pport, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	c := &child{name: name, url: "http://" + addr, pprof: fmt.Sprintf("127.0.0.1:%d", pport), done: make(chan struct{})}
	logf, err := os.Create(filepath.Join(r.tmp, name+".log"))
	if err != nil {
		return nil, err
	}
	argv := append([]string{"-addr", addr, "-pprof", c.pprof}, args...)
	c.cmd = exec.Command(r.serveBin, argv...)
	c.cmd.Stdout, c.cmd.Stderr = logf, logf
	// The kernel kills the server if the benchmark dies without cleaning
	// up, so no run can leave a bound port behind.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	hygieneMu.Lock()
	err = c.cmd.Start()
	if err == nil {
		liveProcs[c] = true
	}
	hygieneMu.Unlock()
	if err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	go func() {
		c.cmd.Wait()
		logf.Close()
		close(c.done)
	}()
	if err := c.waitHTTP("/healthz", 30*time.Second); err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

// waitHTTP polls path until it answers 200.
func (c *child) waitHTTP(path string, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-c.done:
			return fmt.Errorf("%s exited during start-up (see its log in the run directory)", c.name)
		default:
		}
		resp, err := http.Get(c.url + path)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("%s: %s not ready within %s", c.name, path, limit)
}

// stop kills the server and waits until it has exited.
func (c *child) stop() {
	hygieneMu.Lock()
	delete(liveProcs, c)
	hygieneMu.Unlock()
	c.cmd.Process.Kill()
	<-c.done
}

// newRunDir creates this run's temporary directory under .bench_build/tmp,
// after removing any left by runs whose process no longer exists.
func newRunDir(root string) (string, error) {
	base := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	entries, _ := os.ReadDir(base)
	for _, e := range entries {
		var pid int
		if _, err := fmt.Sscanf(e.Name(), "run-%d-", &pid); err != nil || pid <= 0 {
			continue
		}
		if err := syscall.Kill(pid, 0); errors.Is(err, syscall.ESRCH) {
			os.RemoveAll(filepath.Join(base, e.Name()))
		}
	}
	dir, err := os.MkdirTemp(base, fmt.Sprintf("run-%d-", os.Getpid()))
	if err != nil {
		return "", err
	}
	hygieneMu.Lock()
	liveRunDirs = append(liveRunDirs, dir)
	hygieneMu.Unlock()
	return dir, nil
}

// cleanupAll stops every live child and removes every run directory. It is
// safe to call more than once and from the signal handler.
func cleanupAll() {
	hygieneMu.Lock()
	var procs []*child
	for c := range liveProcs {
		procs = append(procs, c)
	}
	dirs := liveRunDirs
	liveRunDirs = nil
	hygieneMu.Unlock()
	for _, c := range procs {
		c.stop()
	}
	for _, d := range dirs {
		os.RemoveAll(d)
	}
}

// procSample is a snapshot of the resources used so far by the benchmark
// process and its children.
type procSample struct {
	cpuMS      float64
	allocBytes uint64
	hwmMB      float64
}

// minus returns the CPU and allocation used since an earlier sample.
func (s procSample) minus(earlier procSample) procSample {
	return procSample{cpuMS: s.cpuMS - earlier.cpuMS, allocBytes: s.allocBytes - earlier.allocBytes, hwmMB: s.hwmMB}
}

// sampleProcs adds up user+system CPU, Go heap bytes allocated and VmHWM
// over this process and the given children.
func sampleProcs(children []*child) procSample {
	var s procSample
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpuMS = float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e6
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.allocBytes = ms.TotalAlloc
	s.hwmMB = vmHWM("self")
	for _, c := range children {
		pid := strconv.Itoa(c.cmd.Process.Pid)
		s.cpuMS += procCPUMS(pid)
		s.hwmMB += vmHWM(pid)
		s.allocBytes += c.totalAlloc()
	}
	return s
}

// procCPUMS reads utime+stime of a process from /proc (clock ticks of 10ms).
func procCPUMS(pid string) float64 {
	b, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0
	}
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) * 10
}

// vmHWM reads a process's peak resident set size in MiB.
func vmHWM(pid string) float64 {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// totalAlloc reads runtime.MemStats.TotalAlloc from the server's -pprof
// heap profile.
func (c *child) totalAlloc() uint64 {
	resp, err := http.Get("http://" + c.pprof + "/debug/pprof/heap?debug=1")
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "# TotalAlloc = "); ok {
			n, _ := strconv.ParseUint(strings.TrimSpace(rest), 10, 64)
			return n
		}
	}
	return 0
}
