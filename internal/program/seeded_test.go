package program_test

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"collabwf/internal/data"
	"collabwf/internal/parse"
	"collabwf/internal/program"
	"collabwf/internal/query"
	"collabwf/internal/rule"
	"collabwf/internal/workload"
)

// completeByFilter is the oracle for Fire's body completion: enumerate every
// body valuation over the peer's view, keep the first that agrees with the
// binding, and extend the binding with it. A binding that already covers
// the body is returned as is.
func completeByFilter(r *program.Run, rl *rule.Rule, bind query.Valuation) (query.Valuation, bool) {
	out := bind.Clone()
	if !openBody(rl, bind) {
		return out, true
	}
	for _, full := range rl.Body.Eval(r.ViewAt(r.Len()-1, rl.Peer), 0) {
		consistent := true
		for k, v := range bind {
			if fv, ok := full[k]; ok && fv != v {
				consistent = false
				break
			}
		}
		if consistent {
			for k, v := range full {
				if _, ok := out[k]; !ok {
					out[k] = v
				}
			}
			return out, true
		}
	}
	return nil, false
}

// openBody reports whether bind leaves a body variable of rl unbound, the
// case in which Fire evaluates the body.
func openBody(rl *rule.Rule, bind query.Valuation) bool {
	for _, v := range rl.BodyVars() {
		if _, ok := bind[v]; !ok {
			return true
		}
	}
	return false
}

func sameValuation(a, b query.Valuation) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// randomBinding draws a client's partial binding for rl: each body variable
// is left open, bound as in one of the rule's candidates (keys and non-keys
// alike), bound to a value of the instance, or bound to a value absent from
// it; each head-only variable is left open, bound to a fresh value, or bound
// to one the run has seen (which Append refuses).
func randomBinding(rng *rand.Rand, r *program.Run, rl *rule.Rule, step int) query.Valuation {
	var cand query.Valuation
	var cands []query.Valuation
	for _, c := range r.Candidates(4) {
		if c.Rule == rl {
			cands = append(cands, c.Val)
		}
	}
	if len(cands) > 0 {
		cand = cands[rng.Intn(len(cands))]
	}
	adom := r.Current().ADom().Sorted()
	pick := func() (data.Value, bool) {
		if len(adom) == 0 {
			return "", false
		}
		return adom[rng.Intn(len(adom))], true
	}
	bind := query.Valuation{}
	for _, v := range rl.BodyVars() {
		switch k := rng.Intn(10); {
		case k < 4:
		case k < 7:
			if x, ok := cand[v]; ok {
				bind[v] = x
			}
		case k < 9:
			if x, ok := pick(); ok {
				bind[v] = x
			}
		default:
			bind[v] = data.Value(fmt.Sprintf("absent%d", step))
		}
	}
	for _, v := range rl.FreshVars() {
		switch k := rng.Intn(10); {
		case k < 6:
		case k < 9:
			bind[v] = data.Value(fmt.Sprintf("h%d%s", step, v))
		default:
			if x, ok := pick(); ok {
				bind[v] = x
			}
		}
	}
	return bind
}

func parsedSpec(t *testing.T, name string) *program.Program {
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

// At every step of generated runs, Fire's seeded, limit-1 completion of a
// random partial binding agrees with enumerate-then-filter: both find the
// same valuation or both find none, and a fired event equals the oracle's.
func TestSeededCompletionMatchesFilter(t *testing.T) {
	specs := map[string]*program.Program{
		"hiring":        parsedSpec(t, "hiring"),
		"crowdsourcing": parsedSpec(t, "crowdsourcing"),
		"review":        parsedSpec(t, "review"),
		"revisions":     workload.Revisions(),
	}
	const noValuation = "no body valuation extends"
	for name, p := range specs {
		t.Run(name, func(t *testing.T) {
			fired, completed, missed := 0, 0, 0
			for seed := int64(1); seed <= 8; seed++ {
				rng := rand.New(rand.NewSource(seed))
				r := program.NewRun(p)
				rules := p.Rules()
				for step := 0; step < 50; step++ {
					rl := rules[rng.Intn(len(rules))]
					bind := randomBinding(rng, r, rl, step)
					want, ok := completeByFilter(r, rl, bind)
					if openBody(rl, bind) {
						// The valuation Fire completes the binding to.
						got := rl.Body.EvalSeeded(r.ViewAt(r.Len()-1, rl.Peer), bind, 1, nil)
						if ok != (len(got) > 0) || ok && !sameValuation(got[0], want) {
							t.Fatalf("seed %d step %d: %s%s: seeded %v, oracle %s (found %v)", seed, step, rl.Name, bind, got, want, ok)
						}
						if ok {
							completed++
						} else {
							missed++
						}
					}
					e, err := r.Fire(program.Candidate{Rule: rl, Val: bind})
					switch {
					case !ok:
						if err == nil || !strings.Contains(err.Error(), noValuation) {
							t.Fatalf("seed %d step %d: %s%s: oracle finds no valuation, Fire = %v, %v", seed, step, rl.Name, bind, e, err)
						}
					case err == nil:
						fired++
						for _, v := range rl.FreshVars() {
							if _, bound := want[v]; !bound {
								want[v] = e.Valuation()[v]
							}
						}
						if oe := program.MustEvent(rl, want); !e.Equal(oe) {
							t.Fatalf("seed %d step %d: Fire %s, oracle %s", seed, step, e, oe)
						}
					case strings.Contains(err.Error(), noValuation):
						t.Fatalf("seed %d step %d: %s%s: oracle completes to %s, Fire: %v", seed, step, rl.Name, bind, want, err)
					}
					if err != nil {
						// Keep the run growing: fire one candidate as found.
						cands := r.Candidates(4)
						rng.Shuffle(len(cands), func(a, b int) { cands[a], cands[b] = cands[b], cands[a] })
						for _, c := range cands {
							if _, err := r.Fire(c); err == nil {
								break
							}
						}
					}
				}
			}
			t.Logf("%d open bindings completed, %d with no valuation; %d fired", completed, missed, fired)
			if completed == 0 || missed == 0 || fired == 0 {
				t.Errorf("generated bindings exercised too little: %d completed, %d with no valuation, %d fired", completed, missed, fired)
			}
		})
	}
}
