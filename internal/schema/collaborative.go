package schema

import (
	"fmt"
	"sort"

	"collabwf/internal/cond"
	"collabwf/internal/data"
)

// Collaborative is a collaborative schema (Definition 2.1): a global
// database schema, a finite set of peers, and for each peer a view schema
// D@p of selection-projection views.
type Collaborative struct {
	DB    *Database
	peers []Peer
	// views holds each peer's views indexed by relation handle (RelID),
	// nil where the peer has none; none is the table of a peer without
	// views.
	views map[Peer][]*View
	none  []*View
}

// NewCollaborative creates an empty collaborative schema over db.
func NewCollaborative(db *Database) *Collaborative {
	return &Collaborative{DB: db, views: make(map[Peer][]*View), none: make([]*View, db.Size())}
}

// AddPeer registers a peer without views (views are added with AddView).
func (s *Collaborative) AddPeer(p Peer) {
	if _, ok := s.views[p]; ok {
		return
	}
	s.views[p] = make([]*View, s.DB.Size())
	s.peers = append(s.peers, p)
	sort.Slice(s.peers, func(i, j int) bool { return s.peers[i] < s.peers[j] })
}

// AddView registers the view R@p. The relation must belong to the schema's
// database and the peer is registered implicitly.
func (s *Collaborative) AddView(v *View) error {
	id, ok := s.DB.ID(v.Rel.Name)
	if !ok || s.DB.RelationAt(id) != v.Rel {
		return fmt.Errorf("schema: view %s over a relation not in the database", v)
	}
	s.AddPeer(v.Peer)
	if s.views[v.Peer][id] != nil {
		return fmt.Errorf("schema: duplicate view %s@%s", v.Rel.Name, v.Peer)
	}
	s.views[v.Peer][id] = v
	return nil
}

// MustAddView is AddView panicking on error.
func (s *Collaborative) MustAddView(v *View) {
	if err := s.AddView(v); err != nil {
		panic(err)
	}
}

// Peers returns the peers in sorted order.
func (s *Collaborative) Peers() []Peer { return s.peers }

// HasPeer reports whether p participates in the schema.
func (s *Collaborative) HasPeer(p Peer) bool {
	_, ok := s.views[p]
	return ok
}

// View returns the view R@p, if the peer sees the relation.
func (s *Collaborative) View(p Peer, rel string) (*View, bool) {
	id, ok := s.DB.ID(rel)
	if !ok {
		return nil, false
	}
	v := s.ViewTable(p)[id]
	return v, v != nil
}

// ViewTable returns p's views indexed by relation handle (RelID), nil
// where p has no view of the relation, so a caller looking up many views
// of one peer pays one map lookup. The table is shared: callers must not
// modify it.
func (s *Collaborative) ViewTable(p Peer) []*View {
	if t, ok := s.views[p]; ok {
		return t
	}
	return s.none
}

// ViewsAt returns the views of peer p sorted by relation name: handles
// follow the sorted names.
func (s *Collaborative) ViewsAt(p Peer) []*View {
	out := make([]*View, 0, len(s.views[p]))
	for _, v := range s.ViewTable(p) {
		if v != nil {
			out = append(out, v)
		}
	}
	return out
}

// PeersSeeing returns the peers that have a view of relation rel, sorted.
func (s *Collaborative) PeersSeeing(rel string) []Peer {
	var out []Peer
	for _, p := range s.peers {
		if _, ok := s.View(p, rel); ok {
			out = append(out, p)
		}
	}
	return out
}

// CheckLossless verifies the losslessness condition of Definition 2.1: for
// every valid instance I and relation R, I(R) must be reconstructible as
// chase_K(⋃ padded peer views). Equivalently: for every relation R and
// attribute A of R there must be no valid tuple t with t(A) ≠ ⊥ such that no
// peer both projects A and selects t. The check is exact — the existence of
// such a tuple is a satisfiability question over equality conditions, which
// the cond package decides.
func (s *Collaborative) CheckLossless() error {
	for i, name := range s.DB.Names() {
		rel := s.DB.RelationAt(RelID(i))
		for _, a := range rel.Attrs {
			// Constraints describing a witness tuple:
			//   valid:      K ≠ ⊥
			//   A matters:  A ≠ ⊥
			//   uncovered:  ¬σ(R@p) for every p with A ∈ att(R@p)
			constraints := []cond.Condition{
				cond.Not{C: cond.EqConst{Attr: data.KeyAttr, Const: data.Null}},
				cond.Not{C: cond.EqConst{Attr: a, Const: data.Null}},
			}
			for _, p := range s.peers {
				v := s.views[p][i]
				if v == nil || !v.Has(a) {
					continue
				}
				constraints = append(constraints, cond.Not{C: v.Selection})
			}
			if cond.Satisfiable(constraints...) {
				return fmt.Errorf("schema: not lossless: some valid tuple of %s has a non-⊥ value for %s visible at no peer", name, a)
			}
		}
	}
	return nil
}

// ViewSchema returns the database schema D@p of peer p: one relation R@p per
// view, with the view's attributes. It is used to build synthesized view
// programs, whose global schema is D@p (Section 5).
func (s *Collaborative) ViewSchema(p Peer) (*Database, error) {
	var rels []*Relation
	for _, v := range s.ViewsAt(p) {
		r, err := NewRelation(v.Rel.Name, v.Attrs[1:]...)
		if err != nil {
			return nil, err
		}
		rels = append(rels, r)
	}
	return NewDatabase(rels...)
}
