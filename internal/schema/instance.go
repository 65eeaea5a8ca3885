package schema

import (
	"bufio"
	"fmt"
	"strings"
	"unsafe"

	"collabwf/internal/cond"
	"collabwf/internal/data"
	"collabwf/internal/jsonw"
)

// Instance is a valid instance of a database schema: for each relation, a
// finite set of tuples with pairwise distinct non-⊥ keys.
//
// Each relation is a persistent tree sorted on the key (see prel), so
// copies share structure: Clone costs O(#relations), a write to a copy
// costs O(log |R|) and never disturbs the instance it was copied from.
// Stored tuples are immutable (Put and ChaseInsert clone their inputs;
// callers must not mutate tuples returned by Get or Tuples).
//
// A transient instance (Transient) writes in place the tree nodes its own
// earlier writes allocated. It is for one owner that rolls an instance
// forward through many writes, such as a replay: nobody else may hold it
// while it is written, and Clone hands out persistent versions of it.
type Instance struct {
	db   *Database
	rels []prel // indexed like db.Names()
	// edit is the edit token of a transient instance, 0 for a persistent
	// one.
	edit edit
}

// NewInstance returns the empty instance of db.
func NewInstance(db *Database) *Instance {
	return &Instance{db: db, rels: make([]prel, len(db.names))}
}

// DB returns the schema of the instance.
func (in *Instance) DB() *Database { return in.db }

// Clone returns an independent, persistent copy of the instance in
// O(#relations): the copy shares every row with the receiver until one of
// them is written. A transient receiver retires its edit token first, so
// its later writes copy every node the copy holds instead of rewriting it.
func (in *Instance) Clone() *Instance {
	in.share()
	return &Instance{db: in.db, rels: append([]prel(nil), in.rels...)}
}

// Transient returns a copy of the instance, like Clone, whose writes are
// made in place on the nodes it allocated itself: a run of writes through
// it copies each path at most once, where a persistent instance copies it
// on every write. Versions the receiver shared before the call never
// change.
func (in *Instance) Transient() *Instance {
	in.share()
	return &Instance{db: in.db, rels: append([]prel(nil), in.rels...), edit: newEdit()}
}

// IsTransient reports whether the instance was made by Transient.
func (in *Instance) IsTransient() bool { return in.edit != 0 }

// share retires a transient receiver's edit token before its nodes are
// shared: no node tagged with the old token can be written in place again.
func (in *Instance) share() {
	if in.edit != 0 {
		in.edit = newEdit()
	}
}

// rel returns the rows of the named relation (empty when unknown).
func (in *Instance) rel(name string) prel {
	if i, ok := in.db.idx[name]; ok {
		return in.rels[i]
	}
	return prel{}
}

// Get returns the tuple of relation rel with the given key.
func (in *Instance) Get(rel string, key data.Value) (data.Tuple, bool) {
	r := in.rel(rel).get(key)
	return r.Tuple(), r != nil
}

// Row returns the stored row of the relation with handle id with the
// given key, nil when absent.
func (in *Instance) Row(id RelID, key data.Value) *Row { return in.rels[id].get(key) }

// HasKey reports whether rel contains a tuple with the given key — the view
// relation Key_R of the paper.
func (in *Instance) HasKey(rel string, key data.Value) bool {
	return in.rel(rel).get(key) != nil
}

// Count returns the number of tuples in rel.
func (in *Instance) Count(rel string) int { return in.rel(rel).n }

// Empty reports whether the instance has no tuples at all.
func (in *Instance) Empty() bool {
	for _, r := range in.rels {
		if r.n > 0 {
			return false
		}
	}
	return true
}

// Tuples returns the tuples of rel sorted by key, for deterministic
// iteration.
func (in *Instance) Tuples(rel string) []data.Tuple {
	r := in.rel(rel)
	out := make([]data.Tuple, 0, r.n)
	r.each(func(t data.Tuple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// Keys returns the sorted keys of rel — the contents of Key_R.
func (in *Instance) Keys(rel string) []data.Value {
	r := in.rel(rel)
	keys := make([]data.Value, 0, r.n)
	r.each(func(t data.Tuple) bool {
		keys = append(keys, t.Key())
		return true
	})
	return keys
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
	i := in.db.idx[rel]
	in.rels[i] = in.rels[i].with(&Row{tup: t.Clone()}, in.edit)
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
	i, ok := in.db.ID(rel)
	return ok && in.DeleteAt(i, key)
}

// DeleteAt is Delete of the relation with handle id.
func (in *Instance) DeleteAt(id RelID, key data.Value) bool {
	r, ok := in.rels[id].without(key, in.edit)
	in.rels[id] = r
	return ok
}

// Adopt stores row r in the relation with handle id under its key,
// replacing any row with that key, and keeps r itself, unchecked: r must
// be a row of that relation, such as one another instance stores. Redoing
// a recorded effect writes its stored row back this way, so the redone
// instance shares the row and its memo.
func (in *Instance) Adopt(id RelID, r *Row) {
	in.rels[id] = in.rels[id].with(r, in.edit)
}

// ChaseInsert computes chase_K(I ∪ {R(t)}) without modifying I: if a tuple
// with t's key exists, the two are merged by filling ⊥ positions; the result
// is invalid (error) if they disagree on a non-⊥ attribute or t's key is ⊥.
// It returns the merged tuple as stored. The result shares every other row
// with the receiver.
func (in *Instance) ChaseInsert(rel string, t data.Tuple) (*Instance, data.Tuple, error) {
	id, ok := in.db.ID(rel)
	if !ok {
		return nil, nil, fmt.Errorf("schema: unknown relation %s", rel)
	}
	out := in.Clone()
	merged, _, err := out.Chase(id, t.Clone())
	if err != nil {
		return nil, nil, err
	}
	return out, merged.tup, nil
}

// Chase is ChaseInsert in place into the relation with handle id, for a
// caller that owns the receiver (a Clone it has not shared) and t: t is
// filled from the stored tuple with its key and stored itself, so the
// caller must not modify it afterwards. It returns the merged row as
// stored and the row it replaced (nil when the key was absent). On error
// the receiver is unchanged.
func (in *Instance) Chase(id RelID, t data.Tuple) (merged, old *Row, err error) {
	r := in.db.RelationAt(id)
	if len(t) != r.Arity() {
		return nil, nil, fmt.Errorf("schema: tuple %v has arity %d, want %d for %s", t, len(t), r.Arity(), r.Name)
	}
	if t.Key().IsNull() {
		return nil, nil, fmt.Errorf("schema: insertion with ⊥ key into %s", r.Name)
	}
	old = in.rels[id].get(t.Key())
	for j, v := range old.Tuple() {
		switch {
		case t[j].IsNull():
			t[j] = v
		case v.IsNull() || v == t[j]:
			// compatible
		default:
			return nil, nil, fmt.Errorf("schema: chase conflict in %s on key %s attribute %s: %s vs %s",
				r.Name, t.Key(), r.Attrs[j], v, t[j])
		}
	}
	merged = &Row{tup: t}
	in.rels[id] = in.rels[id].with(merged, in.edit)
	return merged, old, nil
}

// Equal reports whether two instances over the same schema hold the same
// tuples.
func (in *Instance) Equal(other *Instance) bool {
	if other == nil {
		return in == nil
	}
	if len(other.rels) != len(in.rels) {
		return false
	}
	for i, a := range in.rels {
		b := other.rels[i]
		if a.n != b.n {
			return false
		}
		if a.root == b.root {
			continue
		}
		if !a.each(func(t data.Tuple) bool {
			u := b.get(t.Key())
			return u != nil && t.Equal(u.tup)
		}) {
			return false
		}
	}
	return true
}

// ADom returns the active domain: every value occurring in the instance
// (⊥ excluded).
func (in *Instance) ADom() data.ValueSet {
	s := data.NewValueSet()
	for _, r := range in.rels {
		r.each(func(t data.Tuple) bool {
			for _, v := range t {
				if !v.IsNull() {
					s.Add(v)
				}
			}
			return true
		})
	}
	return s
}

// Fingerprint returns a canonical string representation, usable as a map key
// for deduplicating instances during bounded searches.
func (in *Instance) Fingerprint() string {
	var b strings.Builder
	for i, name := range in.db.Names() {
		b.WriteString(name)
		b.WriteByte('{')
		in.rels[i].each(func(t data.Tuple) bool {
			b.WriteString(t.String())
			return true
		})
		b.WriteByte('}')
	}
	return b.String()
}

// String renders the instance for debugging, omitting empty relations.
func (in *Instance) String() string {
	var b strings.Builder
	for i, name := range in.db.Names() {
		in.rels[i].each(func(t data.Tuple) bool {
			if b.Len() > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(name)
			b.WriteString(t.String())
			return true
		})
	}
	if b.Len() == 0 {
		return "∅"
	}
	return b.String()
}

// ViewInstance is the view I@p of a global instance at a peer: for each view
// R@p, the projected tuples of the selected rows. It is a filter over the
// source instance, not a copy: Get and HasKey look up the source row and
// apply the view's selection and projection to that row only, and Tuples
// walks the sorted source. The source must not be mutated while the view
// is in use (run instances never are).
type ViewInstance struct {
	Peer Peer
	// views is the peer's view table (Collaborative.ViewTable) over the
	// relations of db, the schema's database.
	views []*View
	db    *Database
	src   *Instance
	// scans caches Tuples per relation for the view's lifetime.
	scans map[string][]data.Tuple
	// cnt, when set, receives the condition-eval counts of the selection
	// checks this view makes (per-run profilers); nil leaves them
	// uncounted.
	cnt *cond.EvalCounts
}

// ViewOf returns I@p under the collaborative schema s.
func ViewOf(in *Instance, s *Collaborative, p Peer) *ViewInstance {
	return &ViewInstance{Peer: p, views: s.ViewTable(p), db: s.DB, src: in}
}

// view returns the peer's view of rel, nil when it has none.
func (vi *ViewInstance) view(rel string) *View {
	if id, ok := vi.db.ID(rel); ok {
		return vi.views[id]
	}
	return nil
}

// CountConds routes the condition evaluations of the selection checks made
// by this view instance to cs (nil = uncounted), and returns the receiver
// for chaining.
func (vi *ViewInstance) CountConds(cs *cond.EvalCounts) *ViewInstance {
	vi.cnt = cs
	return vi
}

// View returns the view definition for rel at this peer.
func (vi *ViewInstance) View(rel string) (*View, bool) {
	v := vi.view(rel)
	return v, v != nil
}

// Get returns the projected tuple with the given key in rel.
func (vi *ViewInstance) Get(rel string, key data.Value) (data.Tuple, bool) {
	v := vi.view(rel)
	if v == nil {
		return nil, false
	}
	t, ok := vi.src.Get(rel, key)
	if !ok || !v.Sees(t, vi.cnt) {
		return nil, false
	}
	return v.Project(t), true
}

// HasKey reports whether the peer sees a tuple with this key — the contents
// of Key_{R@p}.
func (vi *ViewInstance) HasKey(rel string, key data.Value) bool {
	v := vi.view(rel)
	if v == nil {
		return false
	}
	t, ok := vi.src.Get(rel, key)
	return ok && v.Sees(t, vi.cnt)
}

// Tuples returns the visible tuples of rel sorted by key.
func (vi *ViewInstance) Tuples(rel string) []data.Tuple {
	if ts, ok := vi.scans[rel]; ok {
		return ts
	}
	v := vi.view(rel)
	if v == nil {
		return nil
	}
	var out []data.Tuple
	vi.src.rel(rel).each(func(t data.Tuple) bool {
		if v.Sees(t, vi.cnt) {
			out = append(out, v.Project(t))
		}
		return true
	})
	if vi.scans == nil {
		vi.scans = make(map[string][]data.Tuple)
	}
	vi.scans[rel] = out
	return out
}

// Each calls fn on the visible tuples of rel in key order, stopping once fn
// returns false. It walks the source relation, applying the view's
// selection and projection row by row, so a scan that stops early or runs
// on a view instance built for one query materialises nothing; after
// Tuples has filled the scan cache it iterates the cache instead. A
// projected tuple lives in a buffer reused across rows: fn must copy what
// it keeps of it.
func (vi *ViewInstance) Each(rel string, fn func(data.Tuple) bool) {
	if ts, ok := vi.scans[rel]; ok {
		for _, t := range ts {
			if !fn(t) {
				return
			}
		}
		return
	}
	v := vi.view(rel)
	if v == nil {
		return
	}
	var buf data.Tuple
	if !v.identity {
		buf = make(data.Tuple, len(v.srcIdx))
	}
	vi.src.rel(rel).each(func(t data.Tuple) bool {
		if !v.Sees(t, vi.cnt) {
			return true
		}
		if buf == nil {
			return fn(t)
		}
		for i, src := range v.srcIdx {
			buf[i] = t[src]
		}
		return fn(buf)
	})
}

// Relations returns the names of the relations the peer has a view of,
// sorted.
func (vi *ViewInstance) Relations() []string {
	var names []string
	for _, v := range vi.views {
		if v != nil {
			names = append(names, v.Rel.Name)
		}
	}
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
		a, b := vi.Tuples(name), other.Tuples(name)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if !a[i].Equal(b[i]) {
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

// rowView is one view's memo of a stored row: whether the view's selection
// keeps the row, and whether the row's line "R@p(…)" goes verbatim into a
// JSON string (plain), so only the rare line that needs escaping is
// escaped as it is written. The line itself is written from the row's
// values each time, so a memo is 24 bytes. Each row keeps a list of them,
// newest first, one per view that has rendered it. Entries are immutable
// once published, and the list only grows by a CAS on its head, so readers
// sharing a row never see a partly built entry.
type rowView struct {
	view        *View
	next        *rowView
	sees, plain bool
}

// seenBy returns v's memo of the row, building and publishing it on first
// use. The selection check behind a first use is counted into cs; later
// uses are free. Two readers racing on one row may both build it, and then
// both publish the same memo; lookups return the first one found.
func (r *Row) seenBy(v *View, cs *cond.EvalCounts) *rowView {
	head := r.views.Load()
	for m := head; m != nil; m = m.next {
		if m.view == v {
			return m
		}
	}
	m := &rowView{view: v}
	if v.Sees(r.tup, cs) {
		m.sees, m.plain = true, v.plain(r.tup)
	}
	for {
		m.next = head
		if r.views.CompareAndSwap(head, m) {
			return m
		}
		head = r.views.Load()
	}
}

// eachLine calls fn with every visible row and its view, by relation name
// and then key: the rows of I@p in the order String prints them.
func (vi *ViewInstance) eachLine(fn func(v *View, t data.Tuple, plain bool)) {
	for _, v := range vi.views {
		if v != nil {
			walkLines(vi.src.rel(v.Rel.Name).root, v, vi.cnt, fn)
		}
	}
}

func walkLines(n *pnode, v *View, cs *cond.EvalCounts, fn func(v *View, t data.Tuple, plain bool)) {
	for n != nil {
		walkLines(n.left, v, cs, fn)
		if m := n.row.seenBy(v, cs); m.sees {
			fn(v, n.row.tup, m.plain)
		}
		n = n.right
	}
}

// String renders the view instance: the lines of its rows joined by ' ',
// or ∅ when the peer sees nothing.
func (vi *ViewInstance) String() string {
	size := -1
	vi.eachLine(func(v *View, t data.Tuple, _ bool) { size += v.lineLen(t) + 1 })
	if size < 0 {
		return "∅"
	}
	b := make([]byte, 0, size)
	vi.eachLine(func(v *View, t data.Tuple, _ bool) {
		if len(b) > 0 {
			b = append(b, ' ')
		}
		b = v.appendLine(b, t)
	})
	// b is never written again: the string may share its bytes.
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// WriteJSON writes String() as a JSON string literal, exactly as
// encoding/json would encode it, without building the string: a plain
// line is written straight into w's buffer, and only the rare line that
// needs escaping is built first, in one scratch buffer.
func (vi *ViewInstance) WriteJSON(w *bufio.Writer) {
	w.WriteByte('"')
	first := true
	var line []byte
	vi.eachLine(func(v *View, t data.Tuple, plain bool) {
		if !first {
			w.WriteByte(' ')
		}
		first = false
		if plain {
			w.Write(v.appendLine(w.AvailableBuffer(), t))
			return
		}
		line = v.appendLine(line[:0], t)
		w.Write(jsonw.AppendEscaped(w.AvailableBuffer(), line))
	})
	if first {
		w.WriteString("∅")
	}
	w.WriteByte('"')
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
			v := vi.view(name)
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
