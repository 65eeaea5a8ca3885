package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"collabwf/internal/data"
	"collabwf/internal/parse"
	"collabwf/internal/program"
)

// streamSpecRun is a seeded random run of the shipped spec; crowdsourcing
// runs start with tasks whose keys and descriptions JSON must escape or
// that are multi-byte.
func streamSpecRun(t *testing.T, name string, seed int64, steps int) (*program.Program, *program.Run) {
	t.Helper()
	src, err := os.ReadFile("../../examples/specs/" + name + ".wf")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := parse.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	r := program.NewRun(spec.Program)
	if name == "crowdsourcing" {
		for i, d := range []string{`"q" \ b`, "<b>&amp;</b>", "tâche ν✓", "a b c", "tab\tnl\n\x01"} {
			b := map[string]data.Value{"t": data.Value(fmt.Sprintf("%s·t%d", d, i)), "d": data.Value(fmt.Sprintf("%s·d%d", d, i))}
			if _, err := r.FireRule("post", b); err != nil {
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
	return spec.Program, r
}

// For every peer of seeded runs of the shipped specs, over prefixes from
// the empty run to the whole run, the frozen explainer's streamed body is
// json.Marshal of the report it builds followed by its text, exactly as
// json.Encoder writes {"report": rep, "text": rep.String()}, and the text
// written to the digest is that same text.
func TestWriteJSONMatchesReport(t *testing.T) {
	for _, name := range []string{"hiring", "crowdsourcing", "review"} {
		for seed := int64(1); seed <= 2; seed++ {
			p, r := streamSpecRun(t, name, seed, 60)
			if r.Len() < 20 {
				t.Fatalf("%s seed %d: run too short (%d events)", name, seed, r.Len())
			}
			peers := p.Peers()
			for _, n := range []int{0, 1, r.Len() / 3, r.Len() - 1, r.Len()} {
				ex := NewRunExplainerAt(r, peers, n)
				for _, peer := range peers {
					fz := ex.Freeze(peer)
					rep := fz.Report(r)
					repJSON, err := json.Marshal(rep)
					if err != nil {
						t.Fatal(err)
					}
					var enc bytes.Buffer
					if err := json.NewEncoder(&enc).Encode(map[string]any{"report": rep, "text": rep.String()}); err != nil {
						t.Fatal(err)
					}

					var got, text bytes.Buffer
					w := bufio.NewWriter(&got)
					fz.WriteJSON(w, r, &text)
					if err := w.Flush(); err != nil {
						t.Fatal(err)
					}
					where := fmt.Sprintf("%s seed %d, %d of %d events, peer %s", name, seed, n, r.Len(), peer)
					if n == 0 && !bytes.Contains(repJSON, []byte(`"Transitions":null`)) {
						t.Fatalf("%s: empty report marshals as %s", where, repJSON)
					}
					if want := `{"report":` + string(repJSON) + `,"text":`; !bytes.HasPrefix(got.Bytes(), []byte(want)) {
						t.Fatalf("%s: streamed body does not open with the marshalled report:\n got %s\nwant %s…", where, got.String(), want)
					}
					if got.String() != enc.String() {
						t.Fatalf("%s: streamed body differs from json.Encoder:\n got %s\nwant %s", where, got.String(), enc.String())
					}
					if text.String() != rep.String() {
						t.Fatalf("%s: digest was fed %q, report text is %q", where, text.String(), rep.String())
					}
				}
			}
		}
	}
}
