package synth

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"collabwf/internal/parse"
	"collabwf/internal/program"
	"collabwf/internal/schema"
	"collabwf/internal/transparency"
	"collabwf/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current code")

// TestDeciderGolden pins the deciders' and the synthesis's observable
// output on the paper's examples: the E7 transparency witnesses for hiring
// and hiring-no-cfo, the E6 bound witness for Chain(3) at h=2, the
// sequential search's node counts, and the E8 view programs. Witnesses are
// checked at one and two workers (par.ForEachOrdered makes them identical);
// node counts only sequentially, since the shared budget counter makes the
// parallel count vary from run to run. Rewrite the golden with -update.
func TestDeciderGolden(t *testing.T) {
	chain3, _, err := workload.Chain(3)
	if err != nil {
		t.Fatal(err)
	}
	small := Options{PoolFresh: 2, MaxTuplesPerRelation: 1}
	var b strings.Builder
	for _, workers := range []int{1, 2} {
		fmt.Fprintf(&b, "== workers %d\n", workers)
		for _, c := range []struct {
			name string
			prog *program.Program
			h    int
		}{
			{"hiring@sue", workload.Hiring(), 3},
			{"hiring-no-cfo@sue", workload.HiringTransparentNoCfo(), 2},
		} {
			var st transparency.Stats
			o := small
			o.Parallelism, o.Stats = workers, &st
			v, err := transparency.CheckTransparent(c.prog, "sue", c.h, o)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if v == nil {
				t.Fatalf("%s: no transparency violation", c.name)
			}
			fmt.Fprintf(&b, "transparency %s h=%d: %s\n", c.name, c.h, v)
			if workers == 1 {
				fmt.Fprintf(&b, "  nodes %d\n", st.Nodes)
			}
		}
		var st transparency.Stats
		v, err := transparency.CheckBounded(chain3, "p", 2, Options{
			PoolFresh: 1, MaxTuplesPerRelation: 1, Parallelism: workers, Stats: &st})
		if err != nil {
			t.Fatal(err)
		}
		if v == nil {
			t.Fatal("chain(3)@p: 2-bounded, want a violation")
		}
		fmt.Fprintf(&b, "bound chain(3)@p h=2: %s\n", v)
		if workers == 1 {
			fmt.Fprintf(&b, "  nodes %d\n", st.Nodes)
		}
	}
	for _, c := range []struct {
		name string
		prog *program.Program
		peer schema.Peer
	}{
		{"hiring", workload.Hiring(), "sue"},
		{"chain3", chain3, "p"},
	} {
		o := small
		o.Parallelism = 1
		res, err := Synthesize(c.prog, c.peer, 3, o)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "== view program %s@%s (%d triples)\n", c.name, c.peer, res.Triples)
		b.WriteString(parse.Print(c.name+"_at_"+string(c.peer), res.Program))
	}
	const path = "testdata/deciders.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("decider output differs from %s:\n--- got\n%s\n--- want\n%s", path, got, want)
	}
}
