package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"collabwf/internal/parse"
	"collabwf/internal/server"
	"collabwf/internal/wal"
)

const hiringSpec = "../../examples/specs/hiring.wf"

// tornTail is the partial last line a crash mid-append leaves in wal.log.
const tornTail = `{"seq":5,"event":{"ru`

// hiringDataDir writes a durable Hiring run of five events into a new data
// dir, then a torn last line, and returns the dir and wal.log's bytes.
func hiringDataDir(t *testing.T) (string, []byte) {
	t.Helper()
	src, err := os.ReadFile(hiringSpec)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := parse.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "data")
	c, err := server.NewDurable(spec.Name, spec.Program, server.DurabilityConfig{Dir: dir, Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := c.Submit("hr", "clear", nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(tornTail); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, readWAL(t, dir)
}

func readWAL(t *testing.T, dir string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// lockedBuffer is a bytes.Buffer safe to write from the server's
// goroutines while the test reads it.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// served is one run of wfserve in the test process.
type served struct {
	addr   string
	stdout *lockedBuffer
	cancel context.CancelFunc
	done   chan error
}

// start runs wfserve on args plus a free loopback -addr, returning once
// its listener is bound (not once it is ready). bound, when not nil, runs
// in the bind hook, before the data dir is touched.
func start(t *testing.T, args []string, bound func(addr string)) *served {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	s := &served{stdout: &lockedBuffer{}, cancel: cancel, done: make(chan error, 1)}
	addrCh := make(chan string, 1)
	args = append(args, "-addr", "127.0.0.1:0", "-log-level", "error")
	go func() {
		s.done <- run(ctx, args, s.stdout, io.Discard, func(a net.Addr) {
			if bound != nil {
				bound(a.String())
			}
			addrCh <- a.String()
		})
	}()
	select {
	case s.addr = <-addrCh:
	case err := <-s.done:
		cancel()
		t.Fatalf("wfserve returned before binding: %v", err)
	}
	t.Cleanup(func() { s.stop(t) })
	return s
}

// stop cancels the server and waits for run to return; a second call is
// a no-op.
func (s *served) stop(t *testing.T) {
	t.Helper()
	if s.cancel == nil {
		return
	}
	s.cancel()
	s.cancel = nil
	select {
	case err := <-s.done:
		if err != nil {
			t.Errorf("wfserve: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Error("wfserve did not shut down")
	}
}

// TestTakenAddrTouchesNothing: with -addr (or -debug-addr) taken, startup
// fails before it opens the decision log or the data dir: the torn tail a
// recovery would truncate — possibly the in-flight append of a live server
// — is still on disk byte for byte, no decisions file exists, and no
// "serving" line is printed.
func TestTakenAddrTouchesNothing(t *testing.T) {
	dir, before := hiringDataDir(t)
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	for _, tc := range []struct{ name, flag string }{
		{"addr", "-addr"},
		{"debug-addr", "-debug-addr"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			declog := filepath.Join(t.TempDir(), "decisions.jsonl")
			args := []string{"-spec", hiringSpec, "-data-dir", dir, "-declog", declog,
				"-addr", "127.0.0.1:0", tc.flag, taken.Addr().String(), "-log-level", "error"}
			var stdout lockedBuffer
			err := run(refusedCtx(t), args, &stdout, io.Discard, func(net.Addr) {
				t.Error("bind hook called although a listener failed to bind")
			})
			if !errors.Is(err, syscall.EADDRINUSE) {
				t.Fatalf("run with %s taken: err = %v, want EADDRINUSE", tc.flag, err)
			}
			if _, err := os.Stat(declog); !os.IsNotExist(err) {
				t.Fatalf("decision log opened: stat err = %v", err)
			}
			if after := readWAL(t, dir); !bytes.Equal(before, after) {
				t.Fatalf("wal.log changed: %d bytes → %d", len(before), len(after))
			}
			if strings.Contains(stdout.String(), "serving") {
				t.Fatalf("printed a serving line: %q", stdout.String())
			}
		})
	}
}

// TestConnectDuringRecoveryIsAnswered: a client that connects once the
// listener is bound but before recovery has begun (the torn tail is still
// on disk) is not refused: its first connection is answered /readyz 200
// once the fleet is ready.
func TestConnectDuringRecoveryIsAnswered(t *testing.T) {
	dir, _ := hiringDataDir(t)
	var conn net.Conn
	s := start(t, []string{"-spec", hiringSpec, "-data-dir", dir}, func(addr string) {
		if !bytes.HasSuffix(readWAL(t, dir), []byte(tornTail)) {
			t.Error("recovery began before the bind hook")
		}
		var err error
		if conn, err = net.Dial("tcp", addr); err != nil {
			t.Errorf("connect during recovery: %v", err)
			return
		}
		if _, err := fmt.Fprintf(conn, "GET /readyz HTTP/1.1\r\nHost: %s\r\nConnection: close\r\n\r\n", addr); err != nil {
			t.Errorf("request during recovery: %v", err)
		}
	})
	if conn == nil {
		t.FailNow()
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("reading the first answer: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"events":5`) {
		t.Fatalf("first /readyz: %d %s", resp.StatusCode, body)
	}
	s.stop(t)
	if want := "serving workflow Hiring on " + s.addr + " (1 runs)"; !strings.Contains(s.stdout.String(), want) {
		t.Fatalf("stdout %q lacks %q", s.stdout.String(), want)
	}
}

// TestSecondServerOnLiveDirRefused: a second server on another port but
// the same data dir is refused by the WAL lock, before it replays or
// truncates anything or emits a decision.
func TestSecondServerOnLiveDirRefused(t *testing.T) {
	dir, _ := hiringDataDir(t)
	first := start(t, []string{"-spec", hiringSpec, "-data-dir", dir}, nil)
	waitReady(t, first.addr)
	before := readWAL(t, dir)

	declog := filepath.Join(t.TempDir(), "decisions.jsonl")
	var stdout lockedBuffer
	args := []string{"-spec", hiringSpec, "-data-dir", dir, "-declog", declog,
		"-addr", "127.0.0.1:0", "-log-level", "error"}
	err := run(refusedCtx(t), args, &stdout, io.Discard, nil)
	if !errors.Is(err, wal.ErrInUse) || !strings.Contains(err.Error(), dir) {
		t.Fatalf("second server on a live dir: err = %v, want ErrInUse naming %s", err, dir)
	}
	if after := readWAL(t, dir); !bytes.Equal(before, after) {
		t.Fatalf("refused server changed wal.log: %d bytes → %d", len(before), len(after))
	}
	if b, err := os.ReadFile(declog); err != nil || len(b) != 0 {
		t.Fatalf("refused server's decision log: %q, %v", b, err)
	}
	if strings.Contains(stdout.String(), "serving") {
		t.Fatalf("refused server printed a serving line: %q", stdout.String())
	}
	// The first server is unaffected.
	waitReady(t, first.addr)
}

// refusedCtx bounds a run that should be refused at startup, so a server
// that starts serving instead fails the test rather than hanging it.
func refusedCtx(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func waitReady(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s not ready: %v", addr, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
