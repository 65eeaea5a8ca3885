package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"collabwf/internal/rule"
	"collabwf/internal/wal"
	"collabwf/internal/workload"
)

// legacyLine closes the body of a record line with its checksum and the
// newline, as versions before the header wrote it.
func legacyLine(body string) string {
	crc := crc32.Checksum([]byte(body+"}"), crc32.MakeTable(crc32.Castagnoli))
	return body + `,"crc":` + strconv.FormatUint(uint64(crc), 10) + "}\n"
}

// copyDir copies the files of src into a new dir under t.TempDir and
// returns it with their contents by name.
func copyDir(t *testing.T, src string) (string, map[string][]byte) {
	t.Helper()
	dir := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	orig := make(map[string][]byte)
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		orig[e.Name()] = b
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir, orig
}

// upgrade runs Upgrade on dir, requiring it to rewrite exactly dir and to
// keep each original file byte for byte as name.legacy.
func upgrade(t *testing.T, dir string, orig map[string][]byte) {
	t.Helper()
	done, err := Upgrade(dir, "Hiring", workload.Hiring())
	if err != nil || len(done) != 1 || done[0] != dir {
		t.Fatalf("Upgrade = %v, %v; want [%s]", done, err, dir)
	}
	for name, b := range orig {
		if cur, err := os.ReadFile(filepath.Join(dir, name+".legacy")); err != nil || !bytes.Equal(cur, b) {
			t.Fatalf("%s.legacy = %q (%v), want the original", name, cur, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot.json")); !os.IsNotExist(err) {
		t.Fatalf("snapshot.json left in place (stat: %v)", err)
	}
}

// TestUnstampedDirRefused: wfserve's recovery of a dir an earlier version
// wrote fails with wal.ErrLegacy naming the upgrade, before the replayer
// starts, and leaves every file — a torn tail included — byte for byte.
func TestUnstampedDirRefused(t *testing.T) {
	for _, fixture := range []string{"legacy-snapshot", "parent-dir"} {
		dir, orig := copyDir(t, filepath.Join("testdata", fixture))
		f, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		f.WriteString(`{"seq":99,"event":{"ru`)
		f.Close()
		orig["wal.log"] = append(orig["wal.log"], `{"seq":99,"event":{"ru`...)
		for _, strict := range []bool{false, true} {
			_, err := NewDurable("Hiring", workload.Hiring(), DurabilityConfig{Dir: dir, Strict: strict})
			if !errors.Is(err, wal.ErrLegacy) || !strings.Contains(err.Error(), "-upgrade "+dir) {
				t.Fatalf("%s (strict=%v): err = %v, want wal.ErrLegacy naming the upgrade", fixture, strict, err)
			}
			for name, b := range orig {
				if cur, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(cur, b) {
					t.Fatalf("%s: refused recovery changed %s", fixture, name)
				}
			}
		}
		// Without snapshot.json the log alone is refused too.
		os.Remove(filepath.Join(dir, "snapshot.json"))
		var rp callCounter
		if _, err := wal.Open(dir, wal.Header{}, wal.Options{}, &rp); !errors.Is(err, wal.ErrLegacy) || rp.starts != 0 {
			t.Fatalf("%s log alone: err = %v, %d starts", fixture, err, rp.starts)
		}
	}
}

// callCounter counts a replayer's starts.
type callCounter struct{ starts int }

func (c *callCounter) Rules() []*rule.Rule         { return nil }
func (c *callCounter) Start(wal.Header, int) error { c.starts++; return nil }
func (c *callCounter) Record(wal.Entry) error      { return nil }

// TestUpgradeParentDir: a dir written by the version before the header —
// values holding every escape jsonw writes (an invalid UTF-8 byte became
// U+FFFD at the JSON edge), keyed records and a guard — upgrades to a dir
// whose recovery serves the /trace, /view and /explain bodies, and the
// idempotent replays, that version served (testdata/parent-dir-reads.json),
// with the guard kept. An Upgrade of the upgraded dir rewrites nothing.
func TestUpgradeParentDir(t *testing.T) {
	dir, orig := copyDir(t, filepath.Join("testdata", "parent-dir"))
	upgrade(t, dir, orig)
	var want map[string]string
	b, err := os.ReadFile(filepath.Join("testdata", "parent-dir-reads.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	c := newCoordinator(t, "Hiring", workload.Hiring(), DurabilityConfig{Dir: dir})
	if g := c.Guards(); len(g) != 1 || g["sue"] != 3 {
		t.Fatalf("guards %v, want sue=3", g)
	}
	h := Handler(c)
	for path, body := range want {
		var req *http.Request
		if key, ok := strings.CutPrefix(path, "replay "); ok {
			req = httptest.NewRequest("POST", "/submit", strings.NewReader(`{"peer":"hr","rule":"clear","bindings":{}}`))
			req.Header.Set("Idempotency-Key", key)
		} else {
			req = httptest.NewRequest("GET", path, nil)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Body.String() != body {
			t.Fatalf("%s:\n got: %s\nwant: %s", path, rec.Body.String(), body)
		}
	}
	if c.Len() != 9 {
		t.Fatalf("replays appended: len %d", c.Len())
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if done, err := Upgrade(dir, "Hiring", workload.Hiring()); err != nil || len(done) != 0 {
		t.Fatalf("second Upgrade = %v, %v; want nothing rewritten", done, err)
	}
}

// TestRunCreationSyncsItsDirs: creating a run writes its log's header and
// syncs the directories that reach it, so a directory sync that fails
// fails the creation instead of acknowledging a run a power cut could
// take back; the retry creates it.
func TestRunCreationSyncsItsDirs(t *testing.T) {
	fp := wal.NewFailpoints()
	m := newTestManager(t, ManagerConfig{DataDir: t.TempDir(),
		Failpoints: func(string) *wal.Failpoints { return fp }})
	fp.FailNextDirSync(errors.New("EIO: directory sync"))
	if err := m.CreateRun("alpha"); err == nil || !strings.Contains(err.Error(), "EIO: directory sync") {
		t.Fatalf("CreateRun with a failing directory sync = %v", err)
	}
	if _, ok := m.Run("alpha"); ok {
		t.Fatal("the failed creation registered the run")
	}
	if err := m.CreateRun("alpha"); err != nil {
		t.Fatalf("retried CreateRun: %v", err)
	}
}

// TestEscapedValuesSurviveCrash: values holding a quote, a backslash,
// control bytes, <>&, U+2028/U+2029 and invalid UTF-8 (which the JSON edge
// turns into U+FFFD) are written with jsonw's escapes and recovered from
// them after a crash: /trace and every peer's view are unchanged.
func TestEscapedValuesSurviveCrash(t *testing.T) {
	prog := workload.Hiring()
	dir := t.TempDir()
	c := newCoordinator(t, "Hiring", prog, DurabilityConfig{Dir: dir})
	h := Handler(c)
	for _, v := range []string{`q\"b\\s`, `c\u0000\u001f\b\f\n\r\t`, `<a>&b`, `l\u2028p\u2029`, "bad\xff\xfeutf8"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/submit", strings.NewReader(`{"peer":"hr","rule":"clear","bindings":{"x":"`+v+`"}}`)))
		if rec.Code != 200 {
			t.Fatalf("submit %q: %d %s", v, rec.Code, rec.Body.String())
		}
	}
	reads := func(h http.Handler) string {
		var b strings.Builder
		for _, path := range []string{"/trace", "/view?peer=hr", "/view?peer=sue", "/explain?peer=cfo"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
			b.WriteString(rec.Body.String())
		}
		return b.String()
	}
	want := reads(h)
	if !strings.Contains(want, `bad��utf8`) {
		t.Fatalf("invalid UTF-8 was not replaced at the edge: %s", want)
	}
	if _, _, err := c.Crash(); err != nil {
		t.Fatal(err)
	}
	rc := newCoordinator(t, "Hiring", prog, DurabilityConfig{Dir: dir})
	defer rc.Close()
	if got := reads(Handler(rc)); got != want {
		t.Fatalf("reads after recovery:\n got: %s\nwant: %s", got, want)
	}
}

// TestUpgradeRefusesLiveDir: while a server holds a legacy run's log (an
// earlier version locks it as this one does), Upgrade fails with
// wal.ErrInUse and changes nothing; once it is released, the upgrade runs.
func TestUpgradeRefusesLiveDir(t *testing.T) {
	dir, orig := copyDir(t, filepath.Join("testdata", "legacy-snapshot"))
	release, err := wal.LockLegacy(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Upgrade(dir, "Hiring", workload.Hiring()); !errors.Is(err, wal.ErrInUse) {
		t.Fatalf("Upgrade of a live dir = %v, want wal.ErrInUse", err)
	}
	for name, b := range orig {
		if cur, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(cur, b) {
			t.Fatalf("the refused upgrade changed %s", name)
		}
	}
	release()
	upgrade(t, dir, orig)
}
