package core

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"os"
	"sort"
	"testing"

	"collabwf/internal/data"
	"collabwf/internal/parse"
	"collabwf/internal/program"
	"collabwf/internal/schema"
)

// frozenReader is a run read as the server's snapshots read it: event
// visibility comes from the frozen explainer's visible-index log instead
// of being recomputed from the step.
type frozenReader struct {
	*program.Run
	visible []int
}

func (r frozenReader) VisibleAt(i int, _ schema.Peer) bool {
	k := sort.SearchInts(r.visible, i)
	return k < len(r.visible) && r.visible[k] == i
}

// crowdRun fires seeded crowdsourcing episodes — a task posted, claimed
// and worked on by both workers, one submission accepted and paid — up to
// three interleaved at a time, until the run has at least n events.
func crowdRun(t *testing.T, n int) (*program.Program, *program.Run) {
	t.Helper()
	src, err := os.ReadFile("../../examples/specs/crowdsourcing.wf")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := parse.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	type submit struct {
		rule string
		kv   []string
	}
	rng := rand.New(rand.NewSource(1))
	episode := func(k int) []submit {
		task, w := fmt.Sprintf("t%d", k), fmt.Sprintf("w%d", rng.Intn(2))
		return []submit{
			{"post", []string{"t", task, "d", "d" + task}},
			{"claim0", []string{"t", task, "c", "c0" + task}},
			{"claim1", []string{"t", task, "c", "c1" + task}},
			{"submit0", []string{"t", task, "c", "c0" + task, "x", "x0" + task}},
			{"submit1", []string{"t", task, "c", "c1" + task, "x", "x1" + task}},
			{"accept", []string{"t", task, "w", w}},
			{"pay", []string{"t", task, "w", w, "y", "y" + task}},
		}
	}
	r := program.NewRun(spec.Program)
	var open [][]submit
	for k := 0; r.Len() < n; {
		for ; len(open) < 3; k++ {
			open = append(open, episode(k))
		}
		e := rng.Intn(len(open))
		s := open[e][0]
		b := map[string]data.Value{}
		for i := 0; i < len(s.kv); i += 2 {
			b[s.kv[i]] = data.Value(s.kv[i+1])
		}
		if _, err := r.FireRule(s.rule, b); err != nil {
			t.Fatalf("%s %v: %v", s.rule, s.kv, err)
		}
		if open[e] = open[e][1:]; len(open[e]) == 0 {
			open = append(open[:e], open[e+1:]...)
		}
	}
	return spec.Program, r
}

// Streaming a peer's /explain body allocates a fixed handful of buffers,
// however long the run: nothing is allocated per transition, note or line.
// Every crowdsourcing peer, with and without a digest, at ~500 and ~2000
// events.
func TestExplainWriteAllocsFlat(t *testing.T) {
	p, r := crowdRun(t, 2000)
	w := bufio.NewWriter(io.Discard)
	for _, peer := range p.Peers() {
		var counts [2][2]float64 // [digest][short, long]
		for k, n := range []int{500, 2000} {
			fz := NewRunExplainerAt(r, []schema.Peer{peer}, n).Freeze(peer)
			rr := frozenReader{r, fz.Visible()}
			for d, digest := range []io.Writer{nil, fnv.New64a()} {
				counts[d][k] = testing.AllocsPerRun(5, func() { fz.WriteJSON(w, rr, digest) })
			}
		}
		for d, c := range counts {
			short, long := c[0], c[1]
			t.Logf("peer %s, digest %t: %.0f allocs at 500 events, %.0f at 2000", peer, d == 1, short, long)
			if long > short+4 || long > 32 {
				t.Errorf("peer %s, digest %t: %.0f allocs at 500 events, %.0f at 2000; want at most %.0f and 32",
					peer, d == 1, short, long, short+4)
			}
		}
	}
}
