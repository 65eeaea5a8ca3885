package server

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"collabwf/internal/data"
	"collabwf/internal/parse"
	"collabwf/internal/program"
	"collabwf/internal/schema"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current code")

func crowdProgram(t testing.TB) *program.Program {
	t.Helper()
	src, err := os.ReadFile("../../examples/specs/crowdsourcing.wf")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := parse.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	return spec.Program
}

// crowdDescs are task descriptions encoding/json must escape or that are
// multi-byte: quotes, backslashes, HTML metacharacters, control
// characters, non-ASCII text and the JavaScript line separators.
var crowdDescs = []string{`say "hi" \ bye`, "<b>&amp;</b>", "tâche ν✓ 日本", "a\u2028b\u2029c", "tab\tnl\n\x01", "plain"}

// driveCrowd submits tasks episodes of crowdsourcing.wf one after another:
// a task is posted, claimed and worked on by both workers, and one of them
// is accepted and paid. Task keys and descriptions cycle through
// crowdDescs, so views carry every kind of character JSON escapes.
func driveCrowd(t testing.TB, c *Coordinator, tasks int, after func()) {
	t.Helper()
	for i := 0; i < tasks; i++ {
		d := crowdDescs[i%len(crowdDescs)]
		tk := fmt.Sprintf("%s·%d", d, i)
		w := []string{"w0", "w1"}[i%2]
		for _, s := range []struct {
			peer, rule string
			kv         []string
		}{
			{"requester", "post", []string{"t", tk, "d", "d" + tk}},
			{"w0", "claim0", []string{"t", tk, "c", "c0" + tk}},
			{"w1", "claim1", []string{"t", tk, "c", "c1" + tk}},
			{"w0", "submit0", []string{"t", tk, "c", "c0" + tk, "x", "x0" + tk}},
			{"w1", "submit1", []string{"t", tk, "c", "c1" + tk, "x", "x1" + tk}},
			{"platform", "accept", []string{"t", tk, "w", w}},
			{"platform", "pay", []string{"t", tk, "w", w, "y", "y" + tk}},
		} {
			b := make(map[string]data.Value, len(s.kv)/2)
			for j := 0; j < len(s.kv); j += 2 {
				b[s.kv[j]] = data.Value(s.kv[j+1])
			}
			if _, err := c.Submit(schema.Peer(s.peer), s.rule, b); err != nil {
				t.Fatalf("task %d %s: %v", i, s.rule, err)
			}
			if after != nil {
				after()
			}
		}
	}
}

// readPaths are the /view and /transitions reads the golden file records
// for a run of length n: every peer (and an unknown one), the whole run,
// a tail, the last event alone and past the end (no transitions).
func readPaths(n int) []string {
	var out []string
	for _, peer := range []string{"platform", "requester", "w0", "w1", "nobody"} {
		out = append(out, "/view?peer="+peer)
		for _, from := range []int{0, n - 10, n - 1, n + 3} {
			out = append(out, fmt.Sprintf("/transitions?peer=%s&from=%d", peer, from))
		}
	}
	return out
}

// The /view and /transitions responses of a seeded crowdsourcing session —
// status, content type, length and SHA-256 of every body — match the golden
// file, recorded from the json.Encoder implementation the streaming writers
// replaced. Run with -update to rewrite it.
func TestReadBodiesMatchGolden(t *testing.T) {
	c := New("Crowdsourcing", crowdProgram(t))
	h := Handler(c)
	var got bytes.Buffer
	record := func() {
		for _, path := range readPaths(c.Len()) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
			fmt.Fprintf(&got, "GET %s -> %d %s %d bytes sha256 %x\n", path, rec.Code,
				rec.Header().Get("Content-Type"), rec.Body.Len(), sha256.Sum256(rec.Body.Bytes()))
		}
	}
	record()
	driveCrowd(t, c, len(crowdDescs), nil)
	record()
	const golden = "testdata/read_bodies.golden"
	if *updateGolden {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n"); len(g) != len(w) {
		t.Fatalf("%d responses, %s has %d", len(g), golden, len(w))
	} else {
		for i := range g {
			if g[i] != w[i] {
				t.Errorf("response differs from %s:\n got %s\nwant %s", golden, g[i], w[i])
			}
		}
	}
}
