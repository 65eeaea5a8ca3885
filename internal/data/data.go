// Package data defines the value domain of collaborative workflows:
// an infinite domain of constants with a distinguished undefined value ⊥
// (Null), attribute names, and tuples.
//
// The model in the paper (Section 2) assumes an infinite data domain dom
// with a distinguished element ⊥ and an infinite set of peers. Values here
// are strings; equality is the only operation the model needs, and a string
// domain is countably infinite, so nothing is lost.
package data

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// Value is an element of the data domain dom.
type Value string

// Null is the distinguished undefined value ⊥.
const Null Value = "⊥"

// IsNull reports whether v is the undefined value ⊥.
func (v Value) IsNull() bool { return v == Null }

// String renders the value, showing ⊥ for Null.
func (v Value) String() string { return string(v) }

// Attr is an attribute name of a relation schema.
type Attr string

// KeyAttr is the distinguished key attribute. Every relation schema in the
// model has the same single-attribute key K.
const KeyAttr Attr = "K"

// Tuple is a mapping from the attributes of a relation schema to values,
// represented positionally: Tuple[i] is the value of the i-th attribute of
// the schema the tuple belongs to. By convention attribute 0 is the key.
type Tuple []Value

// Key returns the key value of the tuple (attribute position 0).
func (t Tuple) Key() Value {
	if len(t) == 0 {
		return Null
	}
	return t[0]
}

// Clone returns a deep copy of the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Equal reports positional equality of two tuples.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if t[i] != u[i] {
			return false
		}
	}
	return true
}

// Subsumes reports whether t subsumes u: they have the same length and u
// agrees with t on every attribute where u is non-null. In other words t is
// at least as defined as u and consistent with it.
func (t Tuple) Subsumes(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range u {
		if !u[i].IsNull() && u[i] != t[i] {
			return false
		}
	}
	return true
}

// String renders a tuple as (v1, v2, ...).
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range t {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Compare orders tuples lexicographically; it is used to produce
// deterministic iteration orders.
func (t Tuple) Compare(u Tuple) int {
	n := min(len(t), len(u))
	for i := 0; i < n; i++ {
		if t[i] != u[i] {
			if t[i] < u[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(t) < len(u):
		return -1
	case len(t) > len(u):
		return 1
	}
	return 0
}

// FreshSource produces globally fresh values. Runs require that variables
// occurring only in rule heads be instantiated with values that appear
// neither in the program nor in any earlier instance of the run; a
// FreshSource shared by a run driver guarantees that.
type FreshSource struct {
	prefix string
	n      atomic.Uint64
}

// NewFreshSource returns a source generating values "<prefix>1", "<prefix>2", ...
func NewFreshSource(prefix string) *FreshSource {
	if prefix == "" {
		prefix = "ν"
	}
	return &FreshSource{prefix: prefix}
}

// Next returns the next fresh value.
func (f *FreshSource) Next() Value {
	return Value(fmt.Sprintf("%s%d", f.prefix, f.n.Add(1)))
}

// Clone returns a source that continues independently from f's position:
// both issue the same next value, and neither advances the other.
func (f *FreshSource) Clone() *FreshSource {
	c := &FreshSource{prefix: f.prefix}
	c.n.Store(f.n.Load())
	return c
}

// Peek reports how many values have been issued.
func (f *FreshSource) Peek() uint64 { return f.n.Load() }

// SortValues sorts a slice of values in place and returns it.
func SortValues(vs []Value) []Value {
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	return vs
}

// ValueSet is a set of domain values.
type ValueSet map[Value]struct{}

// NewValueSet builds a set from the given values.
func NewValueSet(vs ...Value) ValueSet {
	s := make(ValueSet, len(vs))
	for _, v := range vs {
		s[v] = struct{}{}
	}
	return s
}

// Add inserts v and reports whether it was absent.
func (s ValueSet) Add(v Value) bool {
	if _, ok := s[v]; ok {
		return false
	}
	s[v] = struct{}{}
	return true
}

// Has reports membership.
func (s ValueSet) Has(v Value) bool {
	_, ok := s[v]
	return ok
}

// AddAll inserts every value of other.
func (s ValueSet) AddAll(other ValueSet) {
	for v := range other {
		s[v] = struct{}{}
	}
}

// Intersects reports whether the two sets share an element.
func (s ValueSet) Intersects(other ValueSet) bool {
	a, b := s, other
	if len(b) < len(a) {
		a, b = b, a
	}
	for v := range a {
		if b.Has(v) {
			return true
		}
	}
	return false
}

// Sorted returns the members in ascending order.
func (s ValueSet) Sorted() []Value {
	out := make([]Value, 0, len(s))
	for v := range s {
		out = append(out, v)
	}
	return SortValues(out)
}
