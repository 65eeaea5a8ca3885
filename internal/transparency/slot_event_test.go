package transparency

import (
	"cmp"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"collabwf/internal/data"
	"collabwf/internal/parse"
	"collabwf/internal/program"
	"collabwf/internal/query"
	"collabwf/internal/rule"
	"collabwf/internal/schema"
	"collabwf/internal/workload"
)

// The map-based computations an event made before it was a rule and one
// slot array, kept as the oracles the slot event is held to.

// mapUpdates grounds r's head under val.
func mapUpdates(r *rule.Rule, val query.Valuation) []program.GroundUpdate {
	var out []program.GroundUpdate
	for _, u := range r.Head {
		switch u := u.(type) {
		case rule.Insert:
			args := make(data.Tuple, len(u.Args))
			for i, t := range u.Args {
				args[i], _ = val.Apply(t)
			}
			out = append(out, program.GroundUpdate{Rel: u.Rel, Key: args.Key(), Args: args})
		case rule.Delete:
			k, _ := val.Apply(u.Key)
			out = append(out, program.GroundUpdate{IsDelete: true, Rel: u.Rel, Key: k})
		}
	}
	return out
}

// mapKeys is K(R, e) under val: the keys of r's body atoms and key
// literals and of its updates, each pair once, sorted.
func mapKeys(r *rule.Rule, val query.Valuation) []program.RelKey {
	var keys []program.RelKey
	add := func(rel string, k data.Value) {
		if !slices.Contains(keys, program.RelKey{Rel: rel, Key: k}) {
			keys = append(keys, program.RelKey{Rel: rel, Key: k})
		}
	}
	for _, l := range r.Body {
		switch l := l.(type) {
		case query.Atom:
			if len(l.Args) > 0 {
				v, _ := val.Apply(l.Args[0])
				add(l.Rel, v)
			}
		case query.KeyAtom:
			v, _ := val.Apply(l.Arg)
			add(l.Rel, v)
		}
	}
	for _, u := range mapUpdates(r, val) {
		add(u.Rel, u.Key)
	}
	slices.SortFunc(keys, func(a, b program.RelKey) int {
		if c := cmp.Compare(a.Rel, b.Rel); c != 0 {
			return c
		}
		return cmp.Compare(a.Key, b.Key)
	})
	return keys
}

// mapHashEvent is hashEvent over the valuation map, its variables sorted.
func mapHashEvent(name string, val query.Valuation) uint64 {
	h := newHash64()
	h.writeString(name)
	h.writeByte(0x04)
	vars := make([]string, 0, len(val))
	for v := range val {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	for _, v := range vars {
		h.writeString(v)
		h.writeByte(0x00)
		h.writeString(string(val[v]))
		h.writeByte(0x00)
	}
	h.writeByte(0x05)
	return h.sum()
}

// mapString renders an event as Event.String did over the map.
func mapString(r *rule.Rule, val query.Valuation) string {
	ups := mapUpdates(r, val)
	parts := make([]string, len(ups))
	for i, u := range ups {
		parts[i] = u.String()
	}
	return fmt.Sprintf("%s@%s[%s]{%s}", r.Name, r.Peer, val, strings.Join(parts, ", "))
}

var (
	slotProgramsOnce sync.Once
	slotPrograms     []*program.Program
)

// slotEventPrograms are the three example specs and the revision chain.
func slotEventPrograms() []*program.Program {
	slotProgramsOnce.Do(func() {
		for _, name := range []string{"hiring", "crowdsourcing", "review"} {
			src, err := os.ReadFile("../../examples/specs/" + name + ".wf")
			if err != nil {
				panic(err)
			}
			spec, err := parse.Parse(string(src))
			if err != nil {
				panic(err)
			}
			slotPrograms = append(slotPrograms, spec.Program)
		}
		slotPrograms = append(slotPrograms, workload.Revisions())
	})
	return slotPrograms
}

// FuzzSlotEvent: for random valuations of every rule of the three example
// specs and the revision chain, over the values of a random run, its
// constants and a few others, and for the events of that run, the slot
// event agrees with the map-based computations: its grounded updates,
// K(R, e), the Satisfied verdict of its body on the view it fires on, its
// transparency hash, its fingerprint and its rendering. A valuation with a
// name that is no variable of the rule builds the same event as one
// without it.
func FuzzSlotEvent(f *testing.F) {
	for i := range 8 {
		f.Add(uint8(i), int64(i), uint8(5*i))
	}
	f.Fuzz(func(t *testing.T, which uint8, seed int64, steps uint8) {
		progs := slotEventPrograms()
		p := progs[int(which)%len(progs)]
		rng := rand.New(rand.NewSource(seed))
		r := program.NewRun(p)
		for range int(steps) % 40 {
			cands := r.Candidates(3)
			if len(cands) == 0 {
				break
			}
			r.Fire(cands[rng.Intn(len(cands))])
		}
		check := func(e *program.Event, val query.Valuation, in *schema.Instance) {
			t.Helper()
			rl := e.Rule
			if got, want := e.Updates(), mapUpdates(rl, val); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s %v: updates %v, map %v", rl.Name, val, got, want)
			}
			if got, want := e.AppendKeys(nil), mapKeys(rl, val); !slices.Equal(got, want) {
				t.Fatalf("%s %v: keys %v, map %v", rl.Name, val, got, want)
			}
			vi := schema.ViewOf(in, p.Schema, rl.Peer)
			if got, want := rl.Layout().Satisfied(vi, e.Vals()), rl.Body.Satisfied(vi, val); got != want {
				t.Fatalf("%s %v: Satisfied %v, map %v", rl.Name, val, got, want)
			}
			h := newHash64()
			hashEvent(&h, e)
			if got, want := h.sum(), mapHashEvent(rl.Name, val); got != want {
				t.Fatalf("%s %v: hash %x, map %x", rl.Name, val, got, want)
			}
			if got, want := e.Fingerprint(), rl.Name+val.String(); got != want {
				t.Fatalf("fingerprint %q, map %q", got, want)
			}
			if got, want := e.String(), mapString(rl, val); got != want {
				t.Fatalf("string %q, map %q", got, want)
			}
			if got := e.Valuation(); !maps.Equal(got, val) {
				t.Fatalf("%s: valuation %v, want %v", rl.Name, got, val)
			}
			extra := maps.Clone(val)
			extra["bogus"] = "b"
			if same, err := program.NewEvent(rl, extra); err != nil || !same.Equal(e) {
				t.Fatalf("%s %v: event %v (%v), want %v", rl.Name, extra, same, err, e)
			}
		}
		for i, e := range r.Events() {
			check(e, e.Valuation(), r.InstanceAt(i-1))
		}
		pool := append(r.Current().ADom().Sorted(), p.Constants().Sorted()...)
		pool = append(pool, data.Null, "", "ν", "x y", r.NextFresh())
		for _, rl := range p.Rules() {
			// A random valuation, and one binding every variable to the
			// same value, so keys of one relation collide.
			vars := rl.Layout().Vars
			val, same := make(query.Valuation, len(vars)), make(query.Valuation, len(vars))
			one := pool[rng.Intn(len(pool))]
			for _, v := range vars {
				val[v], same[v] = pool[rng.Intn(len(pool))], one
			}
			for _, val := range []query.Valuation{val, same} {
				e, err := program.NewEvent(rl, val)
				if err != nil {
					t.Fatalf("%s %v: %v", rl.Name, val, err)
				}
				check(e, val, r.Current())
			}
		}
	})
}
