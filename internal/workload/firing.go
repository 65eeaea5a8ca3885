package workload

import (
	"fmt"
	"runtime"

	"collabwf/internal/data"
	"collabwf/internal/program"
	"collabwf/internal/query"
	"collabwf/internal/rule"
	"collabwf/internal/schema"
)

// Firing is one client submission: a rule name and the bindings the client
// sends with it.
type Firing struct {
	Rule     string
	Bindings map[string]data.Value
}

// FireCost fires the next window submissions of r, next(k) being the k-th,
// and returns the bytes and allocations per Run.FireRule, read from the
// allocator's statistics around each fire.
func FireCost(r *program.Run, next func(int) Firing, window int) (bytes, allocs float64, err error) {
	var before, after runtime.MemStats
	var b, m uint64
	for i := 0; i < window; i++ {
		f := next(r.Len())
		runtime.ReadMemStats(&before)
		if _, err := r.FireRule(f.Rule, f.Bindings); err != nil {
			return 0, 0, err
		}
		runtime.ReadMemStats(&after)
		b += after.TotalAlloc - before.TotalAlloc
		m += after.Mallocs - before.Mallocs
	}
	w := float64(window)
	return float64(b) / w, float64(m) / w, nil
}

func bindings(kv ...string) map[string]data.Value {
	b := make(map[string]data.Value, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		b[kv[i]] = data.Value(kv[i+1])
	}
	return b
}

// CrowdFiring returns the k-th submission of a Crowdsourcing(2) run driven
// task by task with the binding shapes a served crowd client sends. Each
// task i takes seven: the requester posts it, both workers claim it and
// submit work, and the platform accepts worker i mod 2's work and pays, so
// any 7m consecutive submissions hold m of each. Every head-only variable
// is bound by the client; accept leaves the work tuple's key x open, so
// firing it completes x from Work(x, t, w).
func CrowdFiring(k int) Firing {
	t := fmt.Sprintf("t%d", k/7)
	w := fmt.Sprintf("w%d", k/7%2)
	switch k % 7 {
	case 0:
		return Firing{"post", bindings("t", t, "d", "d"+t)}
	case 1:
		return Firing{"claim0", bindings("t", t, "c", "c0"+t)}
	case 2:
		return Firing{"claim1", bindings("t", t, "c", "c1"+t)}
	case 3:
		return Firing{"submit0", bindings("t", t, "c", "c0"+t, "x", "x0"+t)}
	case 4:
		return Firing{"submit1", bindings("t", t, "c", "c1"+t, "x", "x1"+t)}
	case 5:
		return Firing{"accept", bindings("t", t, "w", w)}
	}
	return Firing{"pay", bindings("t", t, "w", w, "y", "y"+t)}
}

// Revisions returns a revision chain: an editor starts a document, then
// revises it again and again, each revision naming the one it revises.
//
//	start  at editor: +Rev(y, "root") :-            (y fresh)
//	revise at editor: +Rev(y, x)      :- Rev(x, p)  (y fresh)
//
// Each revision depends on the whole chain before it, so the run is one
// deep causal chain rather than independent episodes.
func Revisions() *program.Program {
	rev := schema.MustRelation("Rev", "Parent")
	s := schema.NewCollaborative(schema.MustDatabase(rev))
	s.MustAddView(schema.MustView(rev, "editor", rev.Attrs[1:], nil))
	v := query.V
	p, err := program.New(s, []*rule.Rule{
		{Name: "start", Peer: "editor",
			Head: []rule.Update{rule.Insert{Rel: "Rev", Args: []query.Term{v("y"), query.C("root")}}},
			Body: query.Query{}},
		{Name: "revise", Peer: "editor",
			Head: []rule.Update{rule.Insert{Rel: "Rev", Args: []query.Term{v("y"), v("x")}}},
			Body: query.Query{query.Atom{Rel: "Rev", Args: []query.Term{v("x"), v("p")}}}},
	})
	if err != nil {
		panic(err)
	}
	return p
}

// RevisionFiring returns the i-th submission of a Revisions run as a
// client that names the latest revision sends it: start creating r0 for
// i = 0, then revise creating r<i> from r<i−1>. The parent's own parent p
// is left open, so firing completes it from Rev(x, p).
func RevisionFiring(i int) Firing {
	y := fmt.Sprintf("r%d", i)
	if i == 0 {
		return Firing{"start", bindings("y", y)}
	}
	return Firing{"revise", bindings("y", y, "x", fmt.Sprintf("r%d", i-1))}
}
