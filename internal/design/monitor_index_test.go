package design

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"collabwf/internal/data"
	"collabwf/internal/parse"
	"collabwf/internal/program"
	"collabwf/internal/schema"
	"collabwf/internal/workload"
)

// scanEverExisted is the definition keyEverExisted indexes: a tuple with
// the key is in some instance strictly before event i.
func scanEverExisted(r *program.Run, i int, id factID) bool {
	for j := -1; j < i; j++ {
		if r.InstanceAt(j).HasKey(id.rel, id.key) {
			return true
		}
	}
	return false
}

// checkFirstSeenIndex compares the monitor's O(1) key-existence answer with
// the scan at every event index, for every key of a p-invisible relation
// that ever occurs plus one that never does. The monitor's verdicts depend
// on instance history only through this predicate, so agreement everywhere
// means CheckRun's verdicts are unchanged.
func checkFirstSeenIndex(t *testing.T, r *program.Run, peer schema.Peer) {
	t.Helper()
	m := NewMonitor(r, peer, 3)
	var ids []factID
	seen := map[factID]bool{}
	for _, rel := range r.Prog.Schema.DB.Names() {
		if _, pVisible := r.Prog.Schema.View(peer, rel); pVisible {
			continue
		}
		ids = append(ids, factID{rel, "never-a-key"})
		for j := -1; j < r.Len(); j++ {
			for _, k := range r.InstanceAt(j).Keys(rel) {
				if id := (factID{rel, k}); !seen[id] {
					seen[id] = true
					ids = append(ids, id)
				}
			}
		}
	}
	for i := 0; i <= r.Len(); i++ {
		for _, id := range ids {
			if got, want := m.keyEverExisted(i, id), scanEverExisted(r, i, id); got != want {
				t.Fatalf("peer %s: keyEverExisted(%d, %s(%s)) = %v, scan says %v", peer, i, id.rel, id.key, got, want)
			}
		}
	}
}

// randomRun fires up to n seeded random candidates of p.
func randomRun(p *program.Program, initial *schema.Instance, n int, seed int64) *program.Run {
	r := program.NewRunFrom(p, initial)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		cands := r.Candidates(4)
		rng.Shuffle(len(cands), func(a, b int) { cands[a], cands[b] = cands[b], cands[a] })
		fired := false
		for _, c := range cands {
			if _, err := r.Fire(c); err == nil {
				fired = true
				break
			}
		}
		if !fired {
			break
		}
	}
	return r
}

func TestMonitorFirstSeenMatchesScanOnSpecs(t *testing.T) {
	specs, err := filepath.Glob("../../examples/specs/*.wf")
	if err != nil || len(specs) == 0 {
		t.Fatalf("example specs: %v %v", specs, err)
	}
	for _, path := range specs {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := parse.Parse(string(src))
		if err != nil {
			t.Fatal(err)
		}
		p := spec.Program
		for seed := int64(1); seed <= 3; seed++ {
			r := randomRun(p, schema.NewInstance(p.Schema.DB), 24, seed)
			for _, peer := range p.Peers() {
				checkFirstSeenIndex(t, r, peer)
			}
		}
	}
	// The approval workload deletes and re-creates keys of relations some
	// peers cannot see, and starts from a non-empty instance below.
	_, r := workload.Approval()
	for _, peer := range r.Prog.Peers() {
		checkFirstSeenIndex(t, r, peer)
	}
	p := workload.Hiring()
	init := schema.NewInstance(p.Schema.DB)
	init.MustPut("CfoOK", data.Tuple{"sue"})
	for _, peer := range p.Peers() {
		checkFirstSeenIndex(t, randomRun(p, init, 20, 7), peer)
	}
}

// A seeded guarded run of the staged hiring program: the guard's own
// monitor and a fresh CheckRun both use the index, and it agrees with the
// scan on the accepted run.
func TestMonitorFirstSeenMatchesScanOnGuardedRun(t *testing.T) {
	staged, err := Staged(workload.Hiring(), "sue")
	if err != nil {
		t.Fatal(err)
	}
	g := newGuardedRun(staged, map[schema.Peer]int{"sue": 3})
	rng := rand.New(rand.NewSource(11))
	for step := 0; step < 40; step++ {
		cands := g.run.Candidates(4)
		if len(cands) == 0 {
			break
		}
		c := cands[rng.Intn(len(cands))]
		bind := map[string]data.Value{}
		for k, v := range c.Val {
			bind[k] = v
		}
		_, _ = g.fire(c.Rule.Name, bind)
	}
	if g.run.Len() < 10 {
		t.Fatalf("guarded run too short to exercise the index: %d events", g.run.Len())
	}
	if vs := CheckRun(g.run, "sue", 3); len(vs) != 0 {
		t.Fatalf("the guard accepted a run CheckRun rejects: %v", vs)
	}
	checkFirstSeenIndex(t, g.run, "sue")
}
