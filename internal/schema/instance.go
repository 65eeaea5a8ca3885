package schema

import (
	"fmt"
	"sort"
	"strings"

	"collabwf/internal/cond"
	"collabwf/internal/data"
)

// Instance is a valid instance of a database schema: for each relation, a
// finite set of tuples with pairwise distinct non-⊥ keys.
type Instance struct {
	db   *Database
	rels map[string]map[data.Value]data.Tuple
}

// NewInstance returns the empty instance of db.
func NewInstance(db *Database) *Instance {
	return &Instance{db: db, rels: make(map[string]map[data.Value]data.Tuple)}
}

// DB returns the schema of the instance.
func (in *Instance) DB() *Database { return in.db }

// Clone returns a deep copy of the instance.
func (in *Instance) Clone() *Instance {
	out := NewInstance(in.db)
	for name, rows := range in.rels {
		m := make(map[data.Value]data.Tuple, len(rows))
		for k, t := range rows {
			m[k] = t.Clone()
		}
		out.rels[name] = m
	}
	return out
}

// Get returns the tuple of relation rel with the given key.
func (in *Instance) Get(rel string, key data.Value) (data.Tuple, bool) {
	t, ok := in.rels[rel][key]
	return t, ok
}

// HasKey reports whether rel contains a tuple with the given key — the view
// relation Key_R of the paper.
func (in *Instance) HasKey(rel string, key data.Value) bool {
	_, ok := in.rels[rel][key]
	return ok
}

// Count returns the number of tuples in rel.
func (in *Instance) Count(rel string) int { return len(in.rels[rel]) }

// Empty reports whether the instance has no tuples at all.
func (in *Instance) Empty() bool {
	for _, rows := range in.rels {
		if len(rows) > 0 {
			return false
		}
	}
	return true
}

// Tuples returns the tuples of rel sorted by key, for deterministic
// iteration.
func (in *Instance) Tuples(rel string) []data.Tuple {
	rows := in.rels[rel]
	keys := make([]data.Value, 0, len(rows))
	for k := range rows {
		keys = append(keys, k)
	}
	data.SortValues(keys)
	out := make([]data.Tuple, len(keys))
	for i, k := range keys {
		out[i] = rows[k]
	}
	return out
}

// Keys returns the sorted keys of rel — the contents of Key_R.
func (in *Instance) Keys(rel string) []data.Value {
	rows := in.rels[rel]
	keys := make([]data.Value, 0, len(rows))
	for k := range rows {
		keys = append(keys, k)
	}
	return data.SortValues(keys)
}

// Put stores tuple t in rel, replacing any tuple with the same key. The
// tuple must have the relation's arity and a non-⊥ key.
func (in *Instance) Put(rel string, t data.Tuple) error {
	r := in.db.Relation(rel)
	if r == nil {
		return fmt.Errorf("schema: unknown relation %s", rel)
	}
	if len(t) != r.Arity() {
		return fmt.Errorf("schema: tuple %v has arity %d, want %d for %s", t, len(t), r.Arity(), rel)
	}
	if t.Key().IsNull() {
		return fmt.Errorf("schema: tuple %v has ⊥ key", t)
	}
	rows := in.rels[rel]
	if rows == nil {
		rows = make(map[data.Value]data.Tuple)
		in.rels[rel] = rows
	}
	rows[t.Key()] = t.Clone()
	return nil
}

// MustPut is Put panicking on error.
func (in *Instance) MustPut(rel string, t data.Tuple) {
	if err := in.Put(rel, t); err != nil {
		panic(err)
	}
}

// Delete removes the tuple of rel with the given key and reports whether it
// existed.
func (in *Instance) Delete(rel string, key data.Value) bool {
	rows := in.rels[rel]
	if _, ok := rows[key]; !ok {
		return false
	}
	delete(rows, key)
	return true
}

// shallowWith returns a copy of the instance sharing every relation's row
// map except rel's, which is copied so it can be modified independently.
// Stored tuples are shared: they are treated as immutable (Put and
// ChaseInsert clone their inputs; callers must not mutate tuples returned
// by Get).
func (in *Instance) shallowWith(rel string) *Instance {
	out := NewInstance(in.db)
	for name, rows := range in.rels {
		out.rels[name] = rows
	}
	out.rels[rel] = cloneRows(in.rels[rel])
	if out.rels[rel] == nil {
		out.rels[rel] = make(map[data.Value]data.Tuple)
	}
	return out
}

// ChaseInsert computes chase_K(I ∪ {R(t)}) without modifying I: if a tuple
// with t's key exists, the two are merged by filling ⊥ positions; the result
// is invalid (error) if they disagree on a non-⊥ attribute or t's key is ⊥.
// It returns the merged tuple as stored. The result shares untouched
// relations with the receiver (copy-on-write).
func (in *Instance) ChaseInsert(rel string, t data.Tuple) (*Instance, data.Tuple, error) {
	r := in.db.Relation(rel)
	if r == nil {
		return nil, nil, fmt.Errorf("schema: unknown relation %s", rel)
	}
	if len(t) != r.Arity() {
		return nil, nil, fmt.Errorf("schema: tuple %v has arity %d, want %d for %s", t, len(t), r.Arity(), rel)
	}
	if t.Key().IsNull() {
		return nil, nil, fmt.Errorf("schema: insertion with ⊥ key into %s", rel)
	}
	merged := t.Clone()
	if old, ok := in.rels[rel][t.Key()]; ok {
		for i := range merged {
			switch {
			case merged[i].IsNull():
				merged[i] = old[i]
			case old[i].IsNull() || old[i] == merged[i]:
				// compatible
			default:
				return nil, nil, fmt.Errorf("schema: chase conflict in %s on key %s attribute %s: %s vs %s",
					rel, t.Key(), r.Attrs[i], old[i], merged[i])
			}
		}
	}
	out := in.shallowWith(rel)
	out.rels[rel][merged.Key()] = merged
	return out, merged, nil
}

func cloneRows(rows map[data.Value]data.Tuple) map[data.Value]data.Tuple {
	if rows == nil {
		return nil
	}
	m := make(map[data.Value]data.Tuple, len(rows))
	for k, t := range rows {
		m[k] = t
	}
	return m
}

// Equal reports whether two instances over the same schema hold the same
// tuples.
func (in *Instance) Equal(other *Instance) bool {
	if other == nil {
		return in == nil
	}
	for _, name := range in.db.Names() {
		a, b := in.rels[name], other.rels[name]
		if len(a) != len(b) {
			return false
		}
		for k, t := range a {
			u, ok := b[k]
			if !ok || !t.Equal(u) {
				return false
			}
		}
	}
	return true
}

// ADom returns the active domain: every value occurring in the instance
// (⊥ excluded).
func (in *Instance) ADom() data.ValueSet {
	s := data.NewValueSet()
	for _, rows := range in.rels {
		for _, t := range rows {
			for _, v := range t {
				if !v.IsNull() {
					s.Add(v)
				}
			}
		}
	}
	return s
}

// Fingerprint returns a canonical string representation, usable as a map key
// for deduplicating instances during bounded searches.
func (in *Instance) Fingerprint() string {
	var b strings.Builder
	for _, name := range in.db.Names() {
		b.WriteString(name)
		b.WriteByte('{')
		for _, t := range in.Tuples(name) {
			b.WriteString(t.String())
		}
		b.WriteByte('}')
	}
	return b.String()
}

// String renders the instance for debugging, omitting empty relations.
func (in *Instance) String() string {
	var parts []string
	for _, name := range in.db.Names() {
		ts := in.Tuples(name)
		if len(ts) == 0 {
			continue
		}
		strs := make([]string, len(ts))
		for i, t := range ts {
			strs[i] = name + t.String()
		}
		parts = append(parts, strings.Join(strs, " "))
	}
	if len(parts) == 0 {
		return "∅"
	}
	return strings.Join(parts, " ")
}

// ViewInstance is the view I@p of a global instance at a peer: for each view
// R@p, the projected tuples of the selected rows. Relations are
// materialized lazily on first access; the underlying instance must not be
// mutated after the view is taken (run instances never are — Apply is
// copy-on-write).
type ViewInstance struct {
	Peer  Peer
	views map[string]*View
	src   *Instance
	rels  map[string]map[data.Value]data.Tuple
	// cnt, when set, receives the condition-eval counts of the view
	// selections materialized by this instance (per-run profilers); nil
	// leaves them uncounted.
	cnt *cond.EvalCounts
}

// ViewOf computes I@p under the collaborative schema s.
func ViewOf(in *Instance, s *Collaborative, p Peer) *ViewInstance {
	return &ViewInstance{Peer: p, views: s.views[p], src: in,
		rels: make(map[string]map[data.Value]data.Tuple, len(s.views[p]))}
}

// rows materializes (once) and returns the visible projected tuples of rel.
func (vi *ViewInstance) rows(rel string) map[data.Value]data.Tuple {
	if rows, ok := vi.rels[rel]; ok {
		return rows
	}
	v, ok := vi.views[rel]
	if !ok {
		return nil
	}
	rows := make(map[data.Value]data.Tuple)
	for k, t := range vi.src.rels[rel] {
		if v.Sees(t, vi.cnt) {
			rows[k] = v.Project(t)
		}
	}
	vi.rels[rel] = rows
	return rows
}

// CountConds routes the condition evaluations of selections materialized
// by this view instance to cs (nil = uncounted). It must be set before the first access to any relation (materialization is
// memoized) and returns the receiver for chaining.
func (vi *ViewInstance) CountConds(cs *cond.EvalCounts) *ViewInstance {
	vi.cnt = cs
	return vi
}

// View returns the view definition for rel at this peer.
func (vi *ViewInstance) View(rel string) (*View, bool) {
	v, ok := vi.views[rel]
	return v, ok
}

// Get returns the projected tuple with the given key in rel.
func (vi *ViewInstance) Get(rel string, key data.Value) (data.Tuple, bool) {
	t, ok := vi.rows(rel)[key]
	return t, ok
}

// HasKey reports whether the peer sees a tuple with this key — the contents
// of Key_{R@p}.
func (vi *ViewInstance) HasKey(rel string, key data.Value) bool {
	_, ok := vi.rows(rel)[key]
	return ok
}

// Tuples returns the visible tuples of rel sorted by key.
func (vi *ViewInstance) Tuples(rel string) []data.Tuple {
	rows := vi.rows(rel)
	keys := make([]data.Value, 0, len(rows))
	for k := range rows {
		keys = append(keys, k)
	}
	data.SortValues(keys)
	out := make([]data.Tuple, len(keys))
	for i, k := range keys {
		out[i] = rows[k]
	}
	return out
}

// Relations returns the names of the relations the peer has a view of,
// sorted.
func (vi *ViewInstance) Relations() []string {
	names := make([]string, 0, len(vi.views))
	for n := range vi.views {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Equal reports whether two view instances (for the same peer's view
// schema) contain the same visible tuples.
func (vi *ViewInstance) Equal(other *ViewInstance) bool {
	if other == nil {
		return vi == nil
	}
	names := vi.Relations()
	otherNames := other.Relations()
	if len(names) != len(otherNames) {
		return false
	}
	for i := range names {
		if names[i] != otherNames[i] {
			return false
		}
	}
	for _, name := range names {
		a, b := vi.rows(name), other.rows(name)
		if len(a) != len(b) {
			return false
		}
		for k, t := range a {
			u, ok := b[k]
			if !ok || !t.Equal(u) {
				return false
			}
		}
	}
	return true
}

// Fingerprint returns a canonical string for the view instance.
func (vi *ViewInstance) Fingerprint() string {
	var b strings.Builder
	for _, name := range vi.Relations() {
		b.WriteString(name)
		b.WriteByte('{')
		for _, t := range vi.Tuples(name) {
			b.WriteString(t.String())
		}
		b.WriteByte('}')
	}
	return b.String()
}

// String renders the view instance.
func (vi *ViewInstance) String() string {
	var parts []string
	for _, name := range vi.Relations() {
		ts := vi.Tuples(name)
		if len(ts) == 0 {
			continue
		}
		strs := make([]string, len(ts))
		for i, t := range ts {
			strs[i] = name + "@" + string(vi.Peer) + t.String()
		}
		parts = append(parts, strings.Join(strs, " "))
	}
	if len(parts) == 0 {
		return "∅"
	}
	return strings.Join(parts, " ")
}

// Reconstruct rebuilds a global instance from the collective peer views of
// in, as chase_K(⋃_p (I@p)^⊥). For lossless schemas the result equals in
// (this is exercised by tests). It returns an error if the chase terminates
// with an invalid instance, which cannot happen for views of a valid
// instance.
func Reconstruct(in *Instance, s *Collaborative) (*Instance, error) {
	out := NewInstance(in.db)
	for _, p := range s.Peers() {
		vi := ViewOf(in, s, p)
		for _, name := range vi.Relations() {
			v := vi.views[name]
			for _, u := range vi.Tuples(name) {
				next, _, err := out.ChaseInsert(name, v.Pad(u))
				if err != nil {
					return nil, fmt.Errorf("schema: reconstruct: %w", err)
				}
				out = next
			}
		}
	}
	return out, nil
}

// ShallowWith exposes the copy-on-write copy for the program package: the
// result shares all relations except rel, whose row map is copied.
func ShallowWith(in *Instance, rel string) *Instance { return in.shallowWith(rel) }
