package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildServer compiles the repository's wfserve into dir. Build time is not
// part of any metric.
func buildServer(ctx context.Context, root, dir string) (string, error) {
	bin := filepath.Join(dir, "wfserve")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/wfserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building wfserve: %v\n%s", err, out)
	}
	return bin, nil
}

// serverFlags are the wfserve settings every run pins: the production
// defaults, except that tracing is off unless the run is traced.
func serverFlags(traced bool) []string {
	f := []string{"-fsync", "always", "-snapshot-every", "256"}
	if traced {
		return append(f, "-trace-sample", "always", "-trace-buffer", strconv.Itoa(traceBuffer))
	}
	return append(f, "-trace-sample", "off")
}

// proc is one running server.
type proc struct {
	base   string // API base URL
	debug  string // debug listener base URL ("" when untraced)
	dir    string // data dir
	declog string // decision-log directory
	pid    int
	ready  time.Duration // from spawn to the first /readyz 200
	kill   func()        // stops the server and returns once it has exited
}

// spawner starts a server on dataDir with its decision log in declogDir.
type spawner func(dataDir, declogDir string, traced bool) (*proc, error)

// wfserveSpawner runs the wfserve binary bin on loopback with the pinned
// flags, its output going to logw.
func wfserveSpawner(bin, spec string, logw io.Writer) spawner {
	return func(dataDir, declogDir string, traced bool) (*proc, error) {
		return spawn(bin, spec, dataDir, declogDir, serverFlags(traced), traced, logw)
	}
}

// spawn starts wfserve on dataDir with the decision log in declogDir and
// waits for its first /readyz 200; ready is that wait, recovery included.
func spawn(bin, spec, dataDir, declogDir string, flags []string, traced bool, logw io.Writer) (*proc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	args := append([]string{"-spec", spec, "-addr", "127.0.0.1:" + port, "-data-dir", dataDir,
		"-declog", filepath.Join(declogDir, "decisions.jsonl")}, flags...)
	p := &proc{base: "http://127.0.0.1:" + port, dir: dataDir, declog: declogDir}
	if traced {
		dport, err := freePort()
		if err != nil {
			return nil, err
		}
		args = append(args, "-debug-addr", "127.0.0.1:"+dport)
		p.debug = "http://127.0.0.1:" + dport
	}
	if err := os.MkdirAll(declogDir, 0o755); err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logw, logw
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting wfserve: %w", err)
	}
	exited := make(chan struct{})
	go func() {
		_ = cmd.Wait()
		close(exited)
	}()
	p.pid = cmd.Process.Pid
	p.kill = func() {
		_ = cmd.Process.Signal(syscall.SIGKILL) // fails only once it has exited
		<-exited
	}
	if err := waitReady(p.base, exited, 60*time.Second); err != nil {
		p.kill()
		return nil, err
	}
	p.ready = time.Since(start)
	return p, nil
}

// waitReady polls /readyz every 250µs until it answers 200 (an empty data
// dir is ready in a few milliseconds, so coarser polling would show).
func waitReady(base string, exited <-chan struct{}, limit time.Duration) error {
	hc := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-exited:
			return fmt.Errorf("wfserve exited before becoming ready")
		default:
		}
		resp, err := hc.Get(base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(250 * time.Microsecond)
	}
	return fmt.Errorf("wfserve not ready after %v", limit)
}

// peakRSSMB is the server's VmHWM (peak resident set) in MiB.
func (p *proc) peakRSSMB() (float64, error) { return procStatusMB(p.pid, "VmHWM:") }

// rssMB is the server's current VmRSS in MiB.
func (p *proc) rssMB() (float64, error) { return procStatusMB(p.pid, "VmRSS:") }

func procStatusMB(pid int, field string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no " + field + " in /proc status")
}

func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return strconv.Itoa(l.Addr().(*net.TCPAddr).Port), nil
}

// copyDir copies the regular files of src (recursively) into dst.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}
