package program_test

import (
	"fmt"
	"math/rand"
	"testing"

	"collabwf/internal/data"
	"collabwf/internal/program"
	"collabwf/internal/query"
	"collabwf/internal/rule"
	"collabwf/internal/schema"
	"collabwf/internal/workload"
)

// versionPrograms are the three example specs and the revision chain.
func versionPrograms(t *testing.T) map[string]*program.Program {
	return map[string]*program.Program{
		"hiring":        parsedSpec(t, "hiring"),
		"crowdsourcing": parsedSpec(t, "crowdsourcing"),
		"review":        parsedSpec(t, "review"),
		"revisions":     workload.Revisions(),
	}
}

// sameInstances checks every instance of r, read through InstanceAt and
// through one ascending cursor, against the fully versioned run full.
func sameInstances(t *testing.T, label string, r, full *program.Run) {
	t.Helper()
	if r.Len() != full.Len() {
		t.Fatalf("%s: %d steps, oracle %d", label, r.Len(), full.Len())
	}
	cur := r.Cursor()
	for i := -1; i < full.Len(); i++ {
		want := full.InstanceAt(i)
		if got := r.InstanceAt(i); !got.Equal(want) || got.String() != want.String() {
			t.Fatalf("%s: InstanceAt(%d) = %s, oracle %s", label, i, got, want)
		}
		if got := cur.At(i); !got.Equal(want) {
			t.Fatalf("%s: cursor At(%d) = %s, oracle %s", label, i, got, want)
		}
	}
	if !r.Current().Equal(full.Current()) {
		t.Fatalf("%s: Current = %s, oracle %s", label, r.Current(), full.Current())
	}
}

// Run.InstanceAt equals the fully versioned run at every index, whatever
// the run kept: released at random points while it grows, with rejected
// tails truncated away as the coordinator rolls them back, or rebuilt
// with Replay and then extended. Random reads in between exercise the
// rebuild from the nearest kept version.
func TestInstanceAtMatchesFullVersions(t *testing.T) {
	for name, p := range versionPrograms(t) {
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				rng := rand.New(rand.NewSource(seed))
				full := randomRunLocal(t, p, 150, seed)
				events := full.Events()
				label := fmt.Sprintf("seed %d (%d events)", seed, len(events))

				// Appended and released at random points; a random tail is
				// sometimes appended and truncated back before a release.
				rel := program.NewRun(p)
				for i, e := range events {
					rel.MustAppend(e)
					if rng.Intn(5) == 0 {
						k := rel.Len() - rng.Intn(3)
						rel.Truncate(max(k, rel.Len()-rng.Intn(2)))
						for _, e := range events[rel.Len() : i+1] {
							rel.MustAppend(e)
						}
					}
					if rng.Intn(4) == 0 {
						rel.Release(rel.Len() - rng.Intn(min(3, rel.Len()+1)))
					}
					if rng.Intn(10) == 0 {
						j := rng.Intn(rel.Len()+1) - 1
						if !rel.InstanceAt(j).Equal(full.InstanceAt(j)) {
							t.Fatalf("%s: after %d events, InstanceAt(%d) differs", label, i+1, j)
						}
					}
				}
				sameInstances(t, label+", released", rel, full)

				// Replayed up to a random point, then appended.
				rep := program.NewRun(p)
				cut := rng.Intn(len(events) + 1)
				rep.Grow(cut)
				for i, e := range events {
					var err error
					if i < cut {
						err = rep.Replay(e)
					} else {
						err = rep.Append(e)
					}
					if err != nil {
						t.Fatalf("%s: event %d: %v", label, i, err)
					}
				}
				sameInstances(t, fmt.Sprintf("%s, replayed to %d", label, cut), rep, full)
			}
		})
	}
}

// A Replay whose second update fails after its first was written leaves
// the run as it was, and a released prefix cannot be truncated.
func TestReplayRejectionLeavesRunUnchanged(t *testing.T) {
	r := schema.MustRelation("R", "A")
	sr := schema.MustRelation("S")
	tr := schema.MustRelation("T")
	s := schema.NewCollaborative(schema.MustDatabase(r, sr, tr))
	s.MustAddView(schema.MustView(r, "p", r.Attrs[1:], nil))
	s.MustAddView(schema.MustView(sr, "p", nil, nil))
	s.MustAddView(schema.MustView(tr, "p", nil, nil))
	v := query.V
	p, err := program.New(s, []*rule.Rule{
		{Name: "mk", Peer: "p",
			Head: []rule.Update{rule.Insert{Rel: "S", Args: []query.Term{v("y")}}}},
		{Name: "set", Peer: "p",
			Head: []rule.Update{rule.Insert{Rel: "R", Args: []query.Term{v("x"), query.C("b")}}},
			Body: query.Query{query.Atom{Rel: "S", Args: []query.Term{v("x")}}}},
		// After set(z), the second insert conflicts with R(z, b).
		{Name: "clash", Peer: "p",
			Head: []rule.Update{rule.Insert{Rel: "T", Args: []query.Term{v("x")}},
				rule.Insert{Rel: "R", Args: []query.Term{v("z"), query.C("c")}}},
			Body: query.Query{query.Atom{Rel: "S", Args: []query.Term{v("x")}}, query.Atom{Rel: "S", Args: []query.Term{v("z")}}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	full := program.NewRun(p)
	full.MustFireRule("mk", map[string]data.Value{"y": "z"})
	full.MustFireRule("set", map[string]data.Value{"x": "z"})
	run := program.NewRun(p)
	for _, e := range full.Events() {
		if err := run.Replay(e); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		e := full.MustFireRule("mk", map[string]data.Value{"y": data.Value(fmt.Sprintf("s%d", i))})
		if err := run.Replay(e); err != nil {
			t.Fatal(err)
		}
		clash := program.MustEvent(p.Rule("clash"), query.Valuation{"x": e.Valuation()["y"], "z": "z"})
		if err := run.Replay(clash); err == nil {
			t.Fatalf("replaying %s succeeded", clash)
		}
	}
	sameInstances(t, "after rejected replays", run, full)
	defer func() {
		if recover() == nil {
			t.Fatal("truncating a released step must panic")
		}
	}()
	run.Truncate(run.Len() - 1)
}
