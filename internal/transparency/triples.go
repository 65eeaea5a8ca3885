package transparency

import (
	"context"

	"collabwf/internal/data"
	"collabwf/internal/program"
	"collabwf/internal/schema"
)

// Triple is one (I, α, J) of the view-program construction (Section 5): a
// p-fresh instance I (restricted to the keys α touches), a minimum
// p-faithful run α on I whose events are all silent at p except the visible
// last one, and the p-views of I and J = α(I).
type Triple struct {
	// Initial is I, restricted per relation to keys in K(R, α).
	Initial *schema.Instance
	// Run is α replayed on the restricted I.
	Run *program.Run
	// Before and After are I@p and J@p.
	Before, After *schema.ViewInstance
	// Keys is K(R, α) for each relation R visible at the peer.
	Keys map[string][]data.Value
}

// TripleEnum is the result of EnumerateTriples.
type TripleEnum struct {
	Triples []Triple
	// FreshInstances is the number of p-fresh instances explored.
	FreshInstances int
}

// EnumerateTriples enumerates the (I, α, J) triples over the constant pool
// C_{h+1} that drive the view-program construction of Theorem 5.13. The
// enumeration deduplicates triples whose restricted initial instance and
// event sequence coincide.
func EnumerateTriples(p *program.Program, peer schema.Peer, h int, opts Options) (*TripleEnum, error) {
	ctx := context.Background()
	s := newSearcher(p, peer, h, opts)
	defer s.finish()
	fresh, err := s.freshInstances(ctx)
	if err != nil {
		return nil, err
	}
	out := &TripleEnum{FreshInstances: len(fresh)}
	// The construction requires the restricted instance I|K(α) itself to be
	// p-fresh ("a p-fresh instance I ... such that the tuples in I(R) use
	// only keys in K(R, α)"); freshness is closed under isomorphism of the
	// pool's fresh constants (Lemma A.2), so membership is checked on
	// canonical fingerprints (as 64-bit hashes, like every dedup layer of
	// the searches).
	freshFPs := make(map[uint64]bool, len(fresh))
	for _, in := range fresh {
		freshFPs[hashCanonical(in, s.fresh)] = true
	}
	seen := make(map[uint64]bool)
	for _, in := range fresh {
		err := s.silentRuns(ctx, in, h+1, allBranches, data.NewValueSet(), func(sr SilentRun) bool {
			tr, ok := restrictTriple(p, peer, sr)
			if !ok {
				return true
			}
			if !freshFPs[hashCanonical(tr.Initial, s.fresh)] {
				return true
			}
			fp := tripleHash(tr)
			if !seen[fp] {
				seen[fp] = true
				out.Triples = append(out.Triples, tr)
			}
			return true
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// restrictTriple restricts the initial instance of a silent run to the keys
// its events touch (per relation, K(R, α)) and replays the run on the
// restriction — sound by Lemma A.3(i).
func restrictTriple(p *program.Program, peer schema.Peer, sr SilentRun) (Triple, bool) {
	keys := make(map[string]data.ValueSet)
	var buf []program.RelKey
	for _, e := range sr.Run.Events() {
		buf = e.AppendKeys(buf[:0])
		for _, rk := range buf {
			if keys[rk.Rel] == nil {
				keys[rk.Rel] = data.NewValueSet()
			}
			keys[rk.Rel].Add(rk.Key)
		}
	}
	restricted := schema.NewInstance(p.Schema.DB)
	for _, name := range p.Schema.DB.Names() {
		ks := keys[name]
		if ks == nil {
			continue
		}
		for _, t := range sr.Initial.Tuples(name) {
			if ks.Has(t.Key()) {
				restricted.MustPut(name, t)
			}
		}
	}
	replay := program.NewRunFrom(p, restricted)
	for _, e := range sr.Run.Events() {
		if err := replay.Append(e); err != nil {
			return Triple{}, false
		}
	}
	// The replay must still be a silent-then-visible run for the peer.
	for i := 0; i < replay.Len()-1; i++ {
		if replay.VisibleAt(i, peer) {
			return Triple{}, false
		}
	}
	if !replay.VisibleAt(replay.Len()-1, peer) {
		return Triple{}, false
	}
	visKeys := make(map[string][]data.Value)
	for _, name := range p.Schema.DB.Names() {
		if _, sees := p.Schema.View(peer, name); !sees {
			continue
		}
		if ks := keys[name]; ks != nil {
			visKeys[name] = ks.Sorted()
		}
	}
	return Triple{
		Initial: restricted,
		Run:     replay,
		Before:  schema.ViewOf(restricted, p.Schema, peer),
		After:   schema.ViewOf(replay.Current(), p.Schema, peer),
		Keys:    visKeys,
	}, true
}

// tripleHash identifies a triple by its restricted initial instance and
// event sequence, hashed instead of concatenated into a key string.
func tripleHash(tr Triple) uint64 {
	h := hash64(hashInstance(tr.Initial))
	h.writeByte('|')
	for _, e := range tr.Run.Events() {
		hashEvent(&h, e)
		h.writeByte(';')
	}
	return h.sum()
}
