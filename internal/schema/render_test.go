package schema_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"collabwf/internal/cond"
	"collabwf/internal/data"
	"collabwf/internal/parse"
	"collabwf/internal/program"
	"collabwf/internal/schema"
)

// oracleString is the reference rendering of I@p: every relation's visible
// tuples, projected, as R@p(…), joined by ' ', or ∅ when there are none.
func oracleString(vi *schema.ViewInstance) string {
	var parts []string
	for _, name := range vi.Relations() {
		ts := vi.Tuples(name)
		if len(ts) == 0 {
			continue
		}
		strs := make([]string, len(ts))
		for i, t := range ts {
			strs[i] = name + "@" + string(vi.Peer) + t.String()
		}
		parts = append(parts, strings.Join(strs, " "))
	}
	if len(parts) == 0 {
		return "∅"
	}
	return strings.Join(parts, " ")
}

// viewJSON is vi.WriteJSON's output.
func viewJSON(vi *schema.ViewInstance) string {
	var b bytes.Buffer
	w := bufio.NewWriter(&b)
	vi.WriteJSON(w)
	w.Flush()
	return b.String()
}

// oracleJSON is how encoding/json encodes the oracle rendering.
func oracleJSON(t testing.TB, s string) string {
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(s); err != nil {
		t.Fatal(err)
	}
	return strings.TrimSuffix(b.String(), "\n")
}

func loadProgram(t testing.TB, name string) *program.Program {
	t.Helper()
	src, err := os.ReadFile("../../examples/specs/" + name + ".wf")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := parse.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	return spec.Program
}

// awkward returns the i-th of a series of distinct values encoding/json
// must escape or that are multi-byte: quotes, backslashes, HTML
// metacharacters, control characters, non-ASCII text and the JavaScript
// line separators. (Values a rule creates must be globally fresh.)
func awkward(i int) data.Value {
	kinds := []string{`a"b\c`, "<t>&amp;", "tâche ν✓", "line\u2028sep\u2029par", "tab\tnl\n\x01"}
	return data.Value(fmt.Sprintf("%s·%d", kinds[i%len(kinds)], i))
}

// seededRun grows a run of the named spec by up to steps random firings.
// Crowdsourcing runs start by posting tasks with awkward keys and
// descriptions, so later claims and payments carry them too.
func seededRun(t testing.TB, p *program.Program, name string, seed int64, steps int) *program.Run {
	r := program.NewRun(p)
	if name == "crowdsourcing" {
		for i := 0; i < 10; i += 2 {
			if _, err := r.FireRule("post", map[string]data.Value{"t": awkward(i), "d": awkward(i + 3)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for step := 0; step < steps; step++ {
		cands := r.Candidates(3)
		rng.Shuffle(len(cands), func(a, b int) { cands[a], cands[b] = cands[b], cands[a] })
		for _, c := range cands {
			if _, err := r.Fire(c); err == nil {
				break
			}
		}
	}
	if r.Len() < 20 {
		t.Fatalf("%s seed %d: run too short (%d events)", name, seed, r.Len())
	}
	return r
}

// Every peer's view at every step of seeded runs of the shipped specs
// renders, through String and WriteJSON, exactly as the reference does —
// on first render and again from the rows' memos.
func TestViewStringMatchesOracle(t *testing.T) {
	for _, name := range []string{"hiring", "crowdsourcing", "review"} {
		p := loadProgram(t, name)
		for seed := int64(1); seed <= 3; seed++ {
			r := seededRun(t, p, name, seed, 80)
			for i := -1; i < r.Len(); i++ {
				for _, peer := range p.Peers() {
					want := oracleString(r.ViewAt(i, peer))
					for pass := 0; pass < 2; pass++ {
						if got := r.ViewAt(i, peer).String(); got != want {
							t.Fatalf("%s seed %d step %d %s pass %d:\n got %s\nwant %s", name, seed, i, peer, pass, got, want)
						}
						if got, want := viewJSON(r.ViewAt(i, peer)), oracleJSON(t, want); got != want {
							t.Fatalf("%s seed %d step %d %s pass %d: WriteJSON\n got %s\nwant %s", name, seed, i, peer, pass, got, want)
						}
					}
				}
			}
		}
	}
}

// A view's selection runs once per stored row and view: rendering a step
// again evaluates nothing, and rendering a step appended after that — which
// shares all but its copied path, and the copies keep their rows' memos —
// evaluates only the rows its event wrote.
func TestViewRenderCountsOncePerRow(t *testing.T) {
	p := loadProgram(t, "crowdsourcing")
	r := seededRun(t, p, "crowdsourcing", 1, 60)
	var cs cond.EvalCounts
	render := func() string {
		return schema.ViewOf(r.Current(), p.Schema, "platform").CountConds(&cs).String()
	}
	first := render()
	rows := 0
	for _, name := range p.Schema.DB.Names() {
		rows += r.Current().Count(name)
	}
	if got := cs.Total(); got != int64(rows) {
		t.Fatalf("first render: %d selection checks, want one per stored row (%d)", got, rows)
	}
	if again := render(); again != first {
		t.Fatalf("second render differs:\n%s\n%s", again, first)
	}
	if got := cs.Total(); got != int64(rows) {
		t.Fatalf("second render evaluated %d more selections, want 0", got-int64(rows))
	}
	e, err := r.FireRule("post", map[string]data.Value{"t": "late", "d": "task"})
	if err != nil {
		t.Fatal(err)
	}
	render()
	if got, writes := cs.Total()-int64(rows), len(e.Updates()); got != int64(writes) {
		t.Fatalf("the appended step evaluated %d selections, want one per row its event wrote (%d)", got, writes)
	}
}

// crowdTask fires one task of crowdsourcing.wf: posted with description
// d, claimed and worked on by both workers, then accepted from and paid to
// worker w. after runs after each firing.
func crowdTask(r *program.Run, task int, d, w data.Value, after func()) error {
	tk := data.Value(fmt.Sprintf("t%d", task))
	for _, f := range []struct {
		rule string
		b    map[string]data.Value
	}{
		{"post", map[string]data.Value{"t": tk, "d": d}},
		{"claim0", map[string]data.Value{"t": tk, "c": "c0" + tk}},
		{"claim1", map[string]data.Value{"t": tk, "c": "c1" + tk}},
		{"submit0", map[string]data.Value{"t": tk, "c": "c0" + tk, "x": "x0" + tk}},
		{"submit1", map[string]data.Value{"t": tk, "c": "c1" + tk, "x": "x1" + tk}},
		{"accept", map[string]data.Value{"t": tk, "w": w}},
		{"pay", map[string]data.Value{"t": tk, "w": w, "y": "y" + tk}},
	} {
		if _, err := r.FireRule(f.rule, f.b); err != nil {
			return fmt.Errorf("%s: %w", f.rule, err)
		}
		after()
	}
	return nil
}

// Readers render the newest and adjacent steps of a run for every peer
// while a writer appends to it; every rendering equals the reference. Run
// with -race: readers share the nodes whose memos they fill.
func TestViewRenderConcurrent(t *testing.T) {
	p := loadProgram(t, "crowdsourcing")
	r := program.NewRun(p)
	var published atomic.Pointer[[]*schema.Instance]
	published.Store(&[]*schema.Instance{r.InstanceAt(-1)})
	var done atomic.Bool
	var wg sync.WaitGroup
	for reader := 0; reader < 4; reader++ {
		wg.Add(1)
		go func(reader int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(reader)))
			for !done.Load() {
				insts := *published.Load()
				last := len(insts) - 1
				for _, i := range []int{last, last, last - 1, last - 2, rng.Intn(len(insts))} {
					if i < 0 {
						continue
					}
					for _, peer := range p.Peers() {
						want := oracleString(schema.ViewOf(insts[i], p.Schema, peer))
						if got := schema.ViewOf(insts[i], p.Schema, peer).String(); got != want {
							t.Errorf("reader %d, instance %d, %s:\n got %s\nwant %s", reader, i, peer, got, want)
							return
						}
					}
				}
			}
		}(reader)
	}
	for task := 0; task < 40; task++ {
		w := data.Value([]string{"w0", "w1"}[task%2])
		err := crowdTask(r, task, awkward(task), w, func() {
			insts := append([]*schema.Instance(nil), *published.Load()...)
			insts = append(insts, r.Current())
			published.Store(&insts)
		})
		if err != nil {
			done.Store(true)
			wg.Wait()
			t.Fatalf("task %d: %v", task, err)
		}
	}
	done.Store(true)
	wg.Wait()
}

// BenchmarkViewRender renders the platform's view of a 2100-event
// crowdsourcing run (300 tasks): first renders fill the row memos, every
// later one walks the tree and writes each visible row's line from its
// values.
func BenchmarkViewRender(b *testing.B) {
	p := loadProgram(b, "crowdsourcing")
	r := program.NewRun(p)
	for task := 0; task < 300; task++ {
		if err := crowdTask(r, task, data.Value(fmt.Sprintf("d%d", task)), "w0", func() {}); err != nil {
			b.Fatal(err)
		}
	}
	in := r.Current()
	b.Run("String", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink = schema.ViewOf(in, p.Schema, "platform").String()
		}
		b.SetBytes(int64(len(benchSink)))
	})
	b.Run("WriteJSON", func(b *testing.B) {
		w := bufio.NewWriterSize(io.Discard, 32<<10)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			schema.ViewOf(in, p.Schema, "platform").WriteJSON(w)
		}
		w.Flush()
	})
}

var benchSink string
