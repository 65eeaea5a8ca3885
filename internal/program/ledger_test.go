package program_test

import (
	"fmt"
	"math/rand"
	"os"
	"testing"

	"collabwf/internal/data"
	"collabwf/internal/parse"
	"collabwf/internal/program"
	"collabwf/internal/workload"
)

func loadSpec(t *testing.T, name string) *program.Program {
	t.Helper()
	src, err := os.ReadFile("../../examples/specs/" + name)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := parse.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	return spec.Program
}

// checkLedger compares Run.Fresh against the freshness condition recomputed
// from scratch, v ∉ const(P) ∪ ⋃ adom(Iᵢ), for every constant, every value
// of every instance of the run, and the ν-names up to 20 past the last one
// minted.
func checkLedger(t *testing.T, r *program.Run, minted int, op string) {
	t.Helper()
	used := data.NewValueSet()
	used.AddAll(r.Prog.Constants())
	for i := -1; i < r.Len(); i++ {
		used.AddAll(r.InstanceAt(i).ADom())
	}
	probe := data.NewValueSet()
	probe.AddAll(used)
	for i := 1; i <= minted+20; i++ {
		probe.Add(data.Value(fmt.Sprintf("ν%d", i)))
	}
	for v := range probe {
		if got, want := r.Fresh(v), !used.Has(v); got != want {
			t.Fatalf("after %s (len %d): Fresh(%s) = %v, want %v", op, r.Len(), v, got, want)
		}
	}
}

// TestFreshLedgerMatchesActiveDomains drives random Fire/Truncate sequences
// on four programs and checks the run's one freshness ledger after every
// operation, including rejected fires that bind a head-only variable to a
// value the run has already used.
func TestFreshLedgerMatchesActiveDomains(t *testing.T) {
	for _, c := range []struct {
		name string
		prog *program.Program
	}{
		{"hiring", loadSpec(t, "hiring.wf")},
		{"crowdsourcing", loadSpec(t, "crowdsourcing.wf")},
		{"review", loadSpec(t, "review.wf")},
		{"revisions", workload.Revisions()},
	} {
		t.Run(c.name, func(t *testing.T) {
			rejected := 0
			for seed := int64(1); seed <= 4; seed++ {
				rng := rand.New(rand.NewSource(seed))
				r := program.NewRun(c.prog)
				minted := 0
				for op := 0; op < 150; op++ {
					if r.Len() > 0 && rng.Intn(5) == 0 {
						n := rng.Intn(r.Len() + 1)
						r.Truncate(n)
						checkLedger(t, r, minted, fmt.Sprintf("Truncate(%d)", n))
						continue
					}
					cands := r.Candidates(3)
					if len(cands) == 0 {
						continue
					}
					cand := cands[rng.Intn(len(cands))]
					fvs := cand.Rule.FreshVars()
					if len(fvs) > 0 && r.Len() > 0 && rng.Intn(4) == 0 {
						// Bind a head-only variable to a value of the current
						// instance: Append must refuse it and leave the
						// ledger as it was.
						adom := r.Current().ADom().Sorted()
						if len(adom) > 0 {
							val := cand.Val.Clone()
							val[fvs[0]] = adom[rng.Intn(len(adom))]
							before := r.Len()
							if _, err := r.Fire(program.Candidate{Rule: cand.Rule, Val: val}); err == nil {
								t.Fatalf("fire of %s with a used value accepted", cand)
							}
							minted += len(fvs) - 1
							rejected++
							if r.Len() != before {
								t.Fatalf("rejected fire changed the run length")
							}
							checkLedger(t, r, minted, "rejected Fire")
							continue
						}
					}
					minted += len(fvs)
					if _, err := r.Fire(cand); err != nil {
						checkLedger(t, r, minted, "failed Fire")
						continue
					}
					checkLedger(t, r, minted, "Fire "+cand.String())
				}
				if minted == 0 {
					t.Fatalf("seed %d minted no fresh value", seed)
				}
			}
			if rejected == 0 {
				t.Fatal("no fire was rejected for a used value")
			}
		})
	}
}

// TestCloneIsIndependent: appending to or truncating a run or its clone
// leaves the other's length, events, ledger and fresh source unchanged.
func TestCloneIsIndependent(t *testing.T) {
	p := loadSpec(t, "hiring.wf")
	r := program.NewRun(p)
	x := r.MustFireRule("clear", nil).Valuation()["x"]
	r.MustFireRule("cfo_ok", map[string]data.Value{"x": x})
	// Names drawn but never used stay fresh for the ledger; only the
	// source's position says they were issued.
	r.NextFresh()
	r.NextFresh()
	c := r.Clone()
	if c.Len() != r.Len() || c.Event(0) != r.Event(0) || c.Event(1) != r.Event(1) {
		t.Fatal("clone does not start with the original's events")
	}
	if c.Fresh(x) || r.Fresh(x) {
		t.Fatalf("%s is fresh after it was minted", x)
	}
	if a, b := r.NextFresh(), c.NextFresh(); a != b {
		t.Fatalf("NextFresh: original %s, clone %s; want the same position", a, b)
	}

	// Truncating the original and appending in its place leaves the
	// clone's steps and ledger alone: the step lists share no backing
	// array, and the original's new value is fresh for the clone.
	events := r.Events()
	r.Truncate(1)
	z := r.MustFireRule("clear", nil).Valuation()["x"]
	if c.Len() != 2 || c.Event(0) != events[0] || c.Event(1) != events[1] {
		t.Fatalf("truncating and appending to the original changed the clone: %s", c)
	}
	if r.Fresh(z) || !c.Fresh(z) {
		t.Fatalf("Fresh(%s): original %v, clone %v; want false, true", z, r.Fresh(z), c.Fresh(z))
	}

	// The clone's source stands where the original's stood at the clone,
	// so it mints the same name the original just did.
	y := c.MustFireRule("clear", nil).Valuation()["x"]
	if y != z {
		t.Fatalf("clone minted %s, want %s", y, z)
	}
	c.MustFireRule("approve", map[string]data.Value{"x": x})
	if r.Len() != 2 || r.Event(0) != events[0] || r.Event(1).Valuation()["x"] != z {
		t.Fatalf("appending to the clone changed the original: %s", r)
	}

	cEvents := c.Events()
	r.Truncate(0)
	if c.Len() != 4 {
		t.Fatalf("truncating the original changed the clone's length to %d", c.Len())
	}
	for i, e := range c.Events() {
		if e != cEvents[i] {
			t.Fatalf("clone event %d changed to %s", i, e)
		}
	}
	if !r.Fresh(x) || c.Fresh(x) {
		t.Fatalf("Fresh(%s) after Truncate(0): original %v, clone %v; want true, false", x, r.Fresh(x), c.Fresh(x))
	}
	c.Truncate(0)
	if !c.Fresh(x) || !c.Fresh(y) {
		t.Fatal("clone's ledger kept values its truncated events minted")
	}
}
