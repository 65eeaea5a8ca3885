// Package schema implements the database and collaborative schemas of the
// workflow model (Section 2 of the paper): relation schemas with a common
// single-attribute key K, global database schemas, selection-projection peer
// views R@p, instances with the key constraint, the chase chase_K, and the
// effective losslessness check for collaborative schemas.
package schema

import (
	"fmt"
	"sort"

	"collabwf/internal/cond"
	"collabwf/internal/data"
	"collabwf/internal/jsonw"
)

// Relation is a relation schema: a name and a sequence of distinct
// attributes whose first attribute is the key K.
type Relation struct {
	Name  string
	Attrs []data.Attr
	pos   map[data.Attr]int
}

// MaxArity is the largest arity a relation may have, key included: a
// recorded effect names the attributes it filled as a 64-bit mask.
const MaxArity = 64

// NewRelation builds a relation schema. The key attribute K is added
// implicitly as the first attribute if not given first; attributes must be
// distinct and may not include K anywhere but first, and there may be at
// most MaxArity of them, K included.
func NewRelation(name string, attrs ...data.Attr) (*Relation, error) {
	if name == "" {
		return nil, fmt.Errorf("schema: relation needs a name")
	}
	all := make([]data.Attr, 0, len(attrs)+1)
	if len(attrs) == 0 || attrs[0] != data.KeyAttr {
		all = append(all, data.KeyAttr)
	}
	all = append(all, attrs...)
	if len(all) > MaxArity {
		return nil, fmt.Errorf("schema: relation %s: %d attributes, at most %d allowed", name, len(all), MaxArity)
	}
	pos := make(map[data.Attr]int, len(all))
	for i, a := range all {
		if _, dup := pos[a]; dup {
			return nil, fmt.Errorf("schema: relation %s: duplicate attribute %s", name, a)
		}
		if a == data.KeyAttr && i != 0 {
			return nil, fmt.Errorf("schema: relation %s: key attribute %s must come first", name, a)
		}
		pos[a] = i
	}
	return &Relation{Name: name, Attrs: all, pos: pos}, nil
}

// MustRelation is NewRelation panicking on error; for tests and literals.
func MustRelation(name string, attrs ...data.Attr) *Relation {
	r, err := NewRelation(name, attrs...)
	if err != nil {
		panic(err)
	}
	return r
}

// Arity returns the number of attributes including the key.
func (r *Relation) Arity() int { return len(r.Attrs) }

// Index returns the position of attribute a, if present.
func (r *Relation) Index(a data.Attr) (int, bool) {
	i, ok := r.pos[a]
	return i, ok
}

// Has reports whether the schema has attribute a.
func (r *Relation) Has(a data.Attr) bool {
	_, ok := r.pos[a]
	return ok
}

// String renders the schema as Name(K, A, ...).
func (r *Relation) String() string {
	s := r.Name + "("
	for i, a := range r.Attrs {
		if i > 0 {
			s += ", "
		}
		s += string(a)
	}
	return s + ")"
}

// RelID is a relation's handle in its database: its position among the
// sorted relation names (Database.Names).
type RelID int32

// Database is a global database schema: a finite set of relation schemas.
type Database struct {
	rels  map[string]*Relation
	names []string
	idx   map[string]int // position of each relation in names
	byID  []*Relation    // the relations in the order of names
}

// NewDatabase builds a database schema from relation schemas with distinct
// names.
func NewDatabase(rels ...*Relation) (*Database, error) {
	d := &Database{rels: make(map[string]*Relation, len(rels))}
	for _, r := range rels {
		if _, dup := d.rels[r.Name]; dup {
			return nil, fmt.Errorf("schema: duplicate relation %s", r.Name)
		}
		d.rels[r.Name] = r
		d.names = append(d.names, r.Name)
	}
	sort.Strings(d.names)
	d.idx = make(map[string]int, len(d.names))
	for i, n := range d.names {
		d.idx[n] = i
		d.byID = append(d.byID, d.rels[n])
	}
	return d, nil
}

// MustDatabase is NewDatabase panicking on error.
func MustDatabase(rels ...*Relation) *Database {
	d, err := NewDatabase(rels...)
	if err != nil {
		panic(err)
	}
	return d
}

// Relation returns the schema of the named relation, or nil.
func (d *Database) Relation(name string) *Relation { return d.rels[name] }

// Names returns the relation names in sorted order.
func (d *Database) Names() []string { return d.names }

// ID returns the handle of the named relation, if present.
func (d *Database) ID(name string) (RelID, bool) {
	i, ok := d.idx[name]
	return RelID(i), ok
}

// RelationAt returns the schema of the relation with handle id.
func (d *Database) RelationAt(id RelID) *Relation { return d.byID[id] }

// Size returns the number of relations.
func (d *Database) Size() int { return len(d.rels) }

// MaxArity returns the largest arity among the relations (0 if empty).
func (d *Database) MaxArity() int {
	m := 0
	for _, r := range d.rels {
		if r.Arity() > m {
			m = r.Arity()
		}
	}
	return m
}

// Peer identifies a participant of a collaborative workflow.
type Peer string

// World is the fictitious peer ω used by synthesized view programs to stand
// for "the rest of the world".
const World Peer = "ω"

// View is the view R@p of relation R at peer p: a projection on a subset of
// the attributes (always containing the key) combined with a selection over
// att(R).
type View struct {
	Rel       *Relation
	Peer      Peer
	Attrs     []data.Attr // in schema order, Attrs[0] == K
	Selection cond.Condition
	pos       map[data.Attr]int // position within the view tuple
	srcIdx    []int             // position of each view attribute in the base tuple
	identity  bool              // the projection keeps every attribute in place
}

// NewView builds the view of rel at peer with the given projected attributes
// (the key is added implicitly) and selection (nil means true).
func NewView(rel *Relation, peer Peer, attrs []data.Attr, sel cond.Condition) (*View, error) {
	if rel == nil {
		return nil, fmt.Errorf("schema: view needs a relation")
	}
	if sel == nil {
		sel = cond.True{}
	}
	for _, a := range cond.AttrsOf(sel) {
		if !rel.Has(a) {
			return nil, fmt.Errorf("schema: view %s@%s: selection uses unknown attribute %s", rel.Name, peer, a)
		}
	}
	seen := map[data.Attr]bool{data.KeyAttr: true}
	ordered := []data.Attr{data.KeyAttr}
	for _, a := range attrs {
		if a == data.KeyAttr {
			continue
		}
		if !rel.Has(a) {
			return nil, fmt.Errorf("schema: view %s@%s: unknown attribute %s", rel.Name, peer, a)
		}
		if seen[a] {
			return nil, fmt.Errorf("schema: view %s@%s: duplicate attribute %s", rel.Name, peer, a)
		}
		seen[a] = true
		ordered = append(ordered, a)
	}
	// Keep schema order for determinism.
	sort.Slice(ordered[1:], func(i, j int) bool {
		pi, _ := rel.Index(ordered[1+i])
		pj, _ := rel.Index(ordered[1+j])
		return pi < pj
	})
	v := &View{Rel: rel, Peer: peer, Attrs: ordered, Selection: sel,
		pos: make(map[data.Attr]int, len(ordered)), srcIdx: make([]int, len(ordered))}
	for i, a := range ordered {
		v.pos[a] = i
		src, _ := rel.Index(a)
		v.srcIdx[i] = src
	}
	v.identity = len(ordered) == rel.Arity()
	return v, nil
}

// MustView is NewView panicking on error.
func MustView(rel *Relation, peer Peer, attrs []data.Attr, sel cond.Condition) *View {
	v, err := NewView(rel, peer, attrs, sel)
	if err != nil {
		panic(err)
	}
	return v
}

// Arity returns the number of attributes of the view, including the key.
func (v *View) Arity() int { return len(v.Attrs) }

// Has reports whether attribute a is projected by the view.
func (v *View) Has(a data.Attr) bool {
	_, ok := v.pos[a]
	return ok
}

// Full reports whether the view exposes all attributes of R with selection
// true (condition (C1) of the design guidelines requires peers that see a
// p-visible relation to see it fully).
func (v *View) Full() bool {
	if len(v.Attrs) != v.Rel.Arity() {
		return false
	}
	return cond.Valid(v.Selection)
}

// Sees evaluates the selection σ(R@p) on a full tuple over R, counting the
// condition evaluations into cs (nil = uncounted).
func (v *View) Sees(t data.Tuple, cs *cond.EvalCounts) bool {
	return v.Selection.Eval(v.Rel.pos, t, cs)
}

// Project projects a full tuple over R onto the view attributes. A view
// projecting every attribute returns t itself: stored tuples are immutable.
func (v *View) Project(t data.Tuple) data.Tuple {
	if v.identity {
		return t
	}
	out := make(data.Tuple, len(v.srcIdx))
	for i, src := range v.srcIdx {
		out[i] = t[src]
	}
	return out
}

// lineLen returns the length of the line I@p prints for a selected full
// tuple t over R: "R@p" followed by the projection of t, as
// data.Tuple.String renders it.
func (v *View) lineLen(t data.Tuple) int {
	n := len(v.Rel.Name) + 1 + len(v.Peer) + 2*len(v.srcIdx)
	for _, src := range v.srcIdx {
		n += len(t[src])
	}
	return n
}

// appendLine appends t's line, of lineLen(t) bytes, to dst.
func (v *View) appendLine(dst []byte, t data.Tuple) []byte {
	dst = append(dst, v.Rel.Name...)
	dst = append(dst, '@')
	dst = append(dst, v.Peer...)
	for i, src := range v.srcIdx {
		if i == 0 {
			dst = append(dst, '(')
		} else {
			dst = append(dst, ", "...)
		}
		dst = append(dst, t[src]...)
	}
	return append(dst, ')')
}

// plain reports whether t's line goes verbatim into a JSON string (see
// jsonw.Plain). Its pieces are checked one by one: every byte between two
// values is ASCII, so no rune spans two of them.
func (v *View) plain(t data.Tuple) bool {
	if !jsonw.Plain(v.Rel.Name) || !jsonw.Plain(string(v.Peer)) {
		return false
	}
	for _, src := range v.srcIdx {
		if !jsonw.Plain(string(t[src])) {
			return false
		}
	}
	return true
}

// Pos returns the position in R of the view's i-th attribute.
func (v *View) Pos(i int) int { return v.srcIdx[i] }

// Pad expands a view tuple u to a full tuple over R, filling the hidden
// attributes with ⊥ — the J^⊥ padding of the paper.
func (v *View) Pad(u data.Tuple) data.Tuple {
	out := make(data.Tuple, v.Rel.Arity())
	for i := range out {
		out[i] = data.Null
	}
	for i, src := range v.srcIdx {
		out[src] = u[i]
	}
	return out
}

// RelevantAttrs returns att(R, p) = att(R@p) ∪ att(σ(R@p)): the attributes
// whose values determine whether and how p sees a tuple (Section 4).
func (v *View) RelevantAttrs() []data.Attr {
	set := make(map[data.Attr]struct{}, len(v.Attrs))
	for _, a := range v.Attrs {
		set[a] = struct{}{}
	}
	v.Selection.Attrs(set)
	out := make([]data.Attr, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String renders the view declaration.
func (v *View) String() string {
	s := v.Rel.Name + "@" + string(v.Peer) + "("
	for i, a := range v.Attrs {
		if i > 0 {
			s += ", "
		}
		s += string(a)
	}
	s += ")"
	if _, ok := v.Selection.(cond.True); !ok {
		s += " where " + v.Selection.String()
	}
	return s
}
