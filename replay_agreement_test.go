package collabwf_test

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"collabwf/internal/data"
	"collabwf/internal/parse"
	"collabwf/internal/program"
	"collabwf/internal/schema"
)

// mapInstance is the from-scratch reference for run instances: one plain
// row map per relation, copied whole at every step.
type mapInstance map[string]map[data.Value]data.Tuple

func (mi mapInstance) clone() mapInstance {
	out := make(mapInstance, len(mi))
	for rel, rows := range mi {
		m := make(map[data.Value]data.Tuple, len(rows))
		for k, t := range rows {
			m[k] = t
		}
		out[rel] = m
	}
	return out
}

func sortedKeys(rows map[data.Value]data.Tuple) []data.Value {
	keys := make([]data.Value, 0, len(rows))
	for k := range rows {
		keys = append(keys, k)
	}
	return data.SortValues(keys)
}

// apply replays e's updates the way the paper defines them: an insertion
// chases the padded view tuple into the row, a deletion drops the row.
func (mi mapInstance) apply(s *schema.Collaborative, e *program.Event) mapInstance {
	next := mi.clone()
	for _, u := range e.Updates() {
		rows := next[u.Rel]
		if rows == nil {
			rows = map[data.Value]data.Tuple{}
			next[u.Rel] = rows
		}
		if u.IsDelete {
			delete(rows, u.Key)
			continue
		}
		v, _ := s.View(e.Peer(), u.Rel)
		merged := v.Pad(u.Args)
		if old, ok := rows[u.Key]; ok {
			for i := range merged {
				if merged[i].IsNull() {
					merged[i] = old[i]
				}
			}
		}
		rows[u.Key] = merged
	}
	return next
}

// String renders like schema.Instance.String.
func (mi mapInstance) String(db *schema.Database) string {
	var parts []string
	for _, rel := range db.Names() {
		for _, k := range sortedKeys(mi[rel]) {
			parts = append(parts, rel+mi[rel][k].String())
		}
	}
	if len(parts) == 0 {
		return "∅"
	}
	return strings.Join(parts, " ")
}

// view renders I@p from the rows like schema.ViewInstance.String.
func (mi mapInstance) view(s *schema.Collaborative, p schema.Peer) string {
	views := s.ViewsAt(p)
	sort.Slice(views, func(i, j int) bool { return views[i].Rel.Name < views[j].Rel.Name })
	var parts []string
	for _, v := range views {
		rel := v.Rel.Name
		for _, k := range sortedKeys(mi[rel]) {
			if t := mi[rel][k]; v.Sees(t, nil) {
				parts = append(parts, rel+"@"+string(p)+v.Project(t).String())
			}
		}
	}
	if len(parts) == 0 {
		return "∅"
	}
	return strings.Join(parts, " ")
}

// Every instance of seeded runs of the shipped specs, and every peer's view
// of it, equals a from-scratch replay over plain row maps.
func TestInstancesMatchMapReplay(t *testing.T) {
	for _, name := range []string{"hiring", "crowdsourcing", "review"} {
		src, err := os.ReadFile("examples/specs/" + name + ".wf")
		if err != nil {
			t.Fatal(err)
		}
		spec, err := parse.Parse(string(src))
		if err != nil {
			t.Fatal(err)
		}
		p := spec.Program
		s := p.Schema
		for seed := int64(1); seed <= 4; seed++ {
			label := fmt.Sprintf("%s seed %d", name, seed)
			r := program.NewRun(p)
			rng := rand.New(rand.NewSource(seed))
			for step := 0; step < 60; step++ {
				cands := r.Candidates(3)
				rng.Shuffle(len(cands), func(a, b int) { cands[a], cands[b] = cands[b], cands[a] })
				for _, c := range cands {
					if _, err := r.Fire(c); err == nil {
						break
					}
				}
			}
			if r.Len() < 20 {
				t.Fatalf("%s: run too short (%d events)", label, r.Len())
			}
			ref := mapInstance{}
			for i := -1; i < r.Len(); i++ {
				if i >= 0 {
					ref = ref.apply(s, r.Event(i))
				}
				in := r.InstanceAt(i)
				if got, want := in.String(), ref.String(s.DB); got != want {
					t.Fatalf("%s: InstanceAt(%d)\n got %s\nwant %s", label, i, got, want)
				}
				for _, peer := range p.Peers() {
					if got, want := schema.ViewOf(in, s, peer).String(), ref.view(s, peer); got != want {
						t.Fatalf("%s: view of %s at %d\n got %s\nwant %s", label, peer, i, got, want)
					}
				}
			}
		}
	}
}
