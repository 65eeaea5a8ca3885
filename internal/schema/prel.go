package schema

import (
	"strings"
	"sync/atomic"

	"collabwf/internal/data"
)

// prel is a persistent relation: the rows of one relation as an AVL tree
// sorted on the key, with path-copying writes. A write allocates the
// O(log |R|) nodes on the path to the changed row and shares every other
// node with the version it was derived from, so every earlier version stays
// valid and unchanged. The zero value is the empty relation.
//
// A write made under an edit token (a transient instance's, see
// Instance.Transient) is the exception: a node on the path that carries
// the same token was allocated by an earlier write under that token, so no
// other version holds it, and it is rewritten in place instead of copied.
// Every other node is path-copied as usual, and the copy carries the
// token. Retiring a token (Instance.Clone) makes every node it tagged
// immutable again.
//
// The balancing scheme is the classic functional one (heights of siblings
// differ by at most 2), which keeps the tree O(log n) deep with fewer
// rotations than strict AVL.
type prel struct {
	root *pnode
	n    int
}

type pnode struct {
	// tup is the row; its first value is the node's key.
	tup         data.Tuple
	left, right *pnode
	h           int
	// edit is the token of the transient whose write allocated the node,
	// nil for a node a persistent write allocated.
	edit *edit
	// lines memoizes how each view renders tup (see viewLine). A node
	// rebuilt around the same row — a rotation, a copied path — starts
	// with the memo of the node it replaces, so a row renders once per
	// view for as long as it is stored, not once per version.
	lines atomic.Pointer[viewLine]
}

// edit is a transient instance's edit token. Only its address matters;
// the field keeps tokens distinct (pointers to zero-size values need not
// be).
type edit struct{ _ byte }

// owns reports whether n may be rewritten in place by a write under ed:
// ed is a live token and tagged n.
func (ed *edit) owns(n *pnode) bool { return ed != nil && n.edit == ed }

func height(n *pnode) int {
	if n == nil {
		return 0
	}
	return n.h
}

// mk builds a node holding src's row, with its rendered lines, between l
// and r. A src that ed owns is that node, relinked in place. Each write
// passes a node as src at most once, after reading its links, and drops
// it from its old position, so relinking it cannot disturb the tree.
func (ed *edit) mk(l, src, r *pnode) *pnode {
	h := height(l)
	if hr := height(r); hr > h {
		h = hr
	}
	if ed.owns(src) {
		src.left, src.right, src.h = l, r, h+1
		return src
	}
	n := &pnode{tup: src.tup, left: l, right: r, h: h + 1, edit: ed}
	if lines := src.lines.Load(); lines != nil {
		n.lines.Store(lines)
	}
	return n
}

// bal is mk that restores the balance invariant after one side changed
// height by at most one.
func (ed *edit) bal(l, src, r *pnode) *pnode {
	hl, hr := height(l), height(r)
	switch {
	case hl > hr+2:
		if height(l.left) >= height(l.right) {
			return ed.mk(l.left, l, ed.mk(l.right, src, r))
		}
		lr := l.right
		return ed.mk(ed.mk(l.left, l, lr.left), lr, ed.mk(lr.right, src, r))
	case hr > hl+2:
		if height(r.right) >= height(r.left) {
			return ed.mk(ed.mk(l, src, r.left), r, r.right)
		}
		rl := r.left
		return ed.mk(ed.mk(l, src, rl.left), rl, ed.mk(rl.right, r, r.right))
	}
	return ed.mk(l, src, r)
}

// get returns the row with key k.
func (r prel) get(k data.Value) (data.Tuple, bool) {
	n := r.root
	for n != nil {
		switch c := compare(k, n.key()); {
		case c < 0:
			n = n.left
		case c > 0:
			n = n.right
		default:
			return n.tup, true
		}
	}
	return nil, false
}

// key returns the node's key, the first value of its row.
func (n *pnode) key() data.Value { return n.tup[0] }

// compare orders keys with one comparison per tree level, where k < n.key()
// and then k > n.key() would make two.
func compare(a, b data.Value) int { return strings.Compare(string(a), string(b)) }

// with returns the relation with row t stored under its key k, replacing
// any row with that key. The write is made under ed (nil: path-copying
// only).
func (r prel) with(k data.Value, t data.Tuple, ed *edit) prel {
	root, added := ed.insert(r.root, k, t)
	if added {
		r.n++
	}
	r.root = root
	return r
}

func (ed *edit) insert(n *pnode, k data.Value, t data.Tuple) (*pnode, bool) {
	if n == nil {
		return &pnode{tup: t, h: 1, edit: ed}, true
	}
	switch c := compare(k, n.key()); {
	case c < 0:
		l, added := ed.insert(n.left, k, t)
		return ed.bal(l, n, n.right), added
	case c > 0:
		r, added := ed.insert(n.right, k, t)
		return ed.bal(n.left, n, r), added
	}
	if ed.owns(n) {
		// A new row: the lines rendered for the old one no longer hold.
		n.tup = t
		n.lines.Store(nil)
		return n, false
	}
	return &pnode{tup: t, left: n.left, right: n.right, h: n.h, edit: ed}, false
}

// without returns the relation with the row of key k removed, and whether
// it was present. An absent key returns the receiver unchanged. The write
// is made under ed (nil: path-copying only).
func (r prel) without(k data.Value, ed *edit) (prel, bool) {
	if _, ok := r.get(k); !ok {
		return r, false
	}
	r.root = ed.remove(r.root, k)
	r.n--
	return r, true
}

func (ed *edit) remove(n *pnode, k data.Value) *pnode {
	switch c := compare(k, n.key()); {
	case c < 0:
		return ed.bal(ed.remove(n.left, k), n, n.right)
	case c > 0:
		return ed.bal(n.left, n, ed.remove(n.right, k))
	}
	if n.left == nil {
		return n.right
	}
	if n.right == nil {
		return n.left
	}
	m := n.right
	for m.left != nil {
		m = m.left
	}
	return ed.bal(n.left, m, ed.removeMin(n.right))
}

func (ed *edit) removeMin(n *pnode) *pnode {
	if n.left == nil {
		return n.right
	}
	return ed.bal(ed.removeMin(n.left), n, n.right)
}

// each calls fn on every row in ascending key order until fn returns
// false, and reports whether the walk completed.
func (r prel) each(fn func(data.Tuple) bool) bool { return walk(r.root, fn) }

func walk(n *pnode, fn func(data.Tuple) bool) bool {
	for n != nil {
		if !walk(n.left, fn) || !fn(n.tup) {
			return false
		}
		n = n.right
	}
	return true
}
