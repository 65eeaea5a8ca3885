package program_test

import (
	"math/rand"
	"testing"

	"collabwf/internal/program"
	"collabwf/internal/schema"
	"collabwf/internal/workload"
)

// randomRunLocal drives the crowdsourcing program with a local scheduler
// (the engine package depends on program, so tests here roll their own).
func randomRunLocal(t *testing.T, p *program.Program, steps int, seed int64) *program.Run {
	t.Helper()
	r := program.NewRun(p)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < steps; i++ {
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

// Effects faithfully describe the instance delta: replaying the recorded
// effects of each event on the predecessor instance reproduces the
// successor instance.
func TestEffectsDescribeDeltas(t *testing.T) {
	p, err := workload.Crowdsourcing(2)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 6; seed++ {
		r := randomRunLocal(t, p, 15, seed)
		for i := 0; i < r.Len(); i++ {
			before := r.InstanceAt(i - 1).Clone()
			for _, ef := range r.Effects(i) {
				rel := p.Schema.DB.RelationAt(ef.Rel).Name
				switch ef.Kind {
				case program.Created, program.Modified:
					before.MustPut(rel, ef.After.Tuple())
				case program.Deleted:
					if !before.Delete(rel, ef.Key()) {
						t.Fatalf("seed %d event %d: deleted key %s absent", seed, i, ef.Key())
					}
				}
			}
			if !before.Equal(r.InstanceAt(i)) {
				t.Fatalf("seed %d event %d: effects do not reproduce the instance", seed, i)
			}
		}
	}
}

// Created effects imply the key was absent before; Deleted effects imply
// it is absent after; Modified effects only ever fill ⊥ positions.
func TestEffectKindInvariants(t *testing.T) {
	p, err := workload.Crowdsourcing(2)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 6; seed++ {
		r := randomRunLocal(t, p, 15, seed)
		for i := 0; i < r.Len(); i++ {
			before, after := r.InstanceAt(i-1), r.InstanceAt(i)
			for _, ef := range r.Effects(i) {
				rel := p.Schema.DB.RelationAt(ef.Rel).Name
				switch ef.Kind {
				case program.Created:
					if before.HasKey(rel, ef.Key()) {
						t.Fatalf("Created but key existed: %v", ef)
					}
					if !after.HasKey(rel, ef.Key()) {
						t.Fatalf("Created but key absent after: %v", ef)
					}
				case program.Deleted:
					if after.HasKey(rel, ef.Key()) {
						t.Fatalf("Deleted but key present after: %v", ef)
					}
				case program.Modified:
					b, a := ef.Before.Tuple(), ef.After.Tuple()
					for j := range b {
						filled := ef.Filled&(1<<j) != 0
						if filled && (!b[j].IsNull() || a[j].IsNull()) {
							t.Fatalf("Modified fill not ⊥→value: %v", ef)
						}
						// Non-filled positions are unchanged.
						if !filled && b[j] != a[j] {
							t.Fatalf("Modified changed a non-⊥ position: %v", ef)
						}
					}
					if ef.Filled>>len(b) != 0 {
						t.Fatalf("Modified fills a position past the arity: %v", ef)
					}
				}
			}
		}
	}
}

// Replaying the exact event sequence of a run reproduces it instance by
// instance (determinism of the transition relation).
func TestReplayDeterminism(t *testing.T) {
	p, err := workload.Crowdsourcing(2)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 4; seed++ {
		r := randomRunLocal(t, p, 12, seed)
		replay := program.NewRunFrom(p, r.Initial)
		for i := 0; i < r.Len(); i++ {
			if err := replay.Append(r.Event(i)); err != nil {
				t.Fatalf("seed %d event %d: %v", seed, i, err)
			}
			if !replay.InstanceAt(i).Equal(r.InstanceAt(i)) {
				t.Fatalf("seed %d event %d: instances diverge", seed, i)
			}
		}
	}
}

// Visibility is stable across views: an event is invisible at p iff p's
// view instances before and after are equal — for every peer.
func TestVisibilityDefinition(t *testing.T) {
	p, err := workload.Crowdsourcing(2)
	if err != nil {
		t.Fatal(err)
	}
	r := randomRunLocal(t, p, 15, 3)
	for i := 0; i < r.Len(); i++ {
		for _, peer := range p.Peers() {
			same := schema.ViewOf(r.InstanceAt(i-1), p.Schema, peer).
				Equal(schema.ViewOf(r.InstanceAt(i), p.Schema, peer))
			own := r.Event(i).Peer() == peer
			if r.VisibleAt(i, peer) != (own || !same) {
				t.Fatalf("visibility mismatch at event %d for %s", i, peer)
			}
		}
	}
}
