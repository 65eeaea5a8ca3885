package schema

import (
	"sync/atomic"

	"collabwf/internal/data"
)

// prel is a persistent relation: the rows of one relation as an immutable
// AVL tree sorted on the key, with path-copying writes. A write allocates
// the O(log |R|) nodes on the path to the changed row and shares every
// other node with the version it was derived from, so every earlier
// version stays valid and unchanged. The zero value is the empty relation.
//
// The balancing scheme is the classic functional one (heights of siblings
// differ by at most 2), which keeps the tree O(log n) deep with fewer
// rotations than strict AVL.
type prel struct {
	root *pnode
	n    int
}

type pnode struct {
	key         data.Value
	tup         data.Tuple
	left, right *pnode
	h           int
	// lines memoizes how each view renders tup (see viewLine). A node
	// rebuilt around the same row — a rotation, a copied path — starts
	// with the memo of the node it replaces, so a row renders once per
	// view for as long as it is stored, not once per version.
	lines atomic.Pointer[viewLine]
}

func height(n *pnode) int {
	if n == nil {
		return 0
	}
	return n.h
}

// mk builds a node holding src's row, with its rendered lines, between l
// and r.
func mk(l, src, r *pnode) *pnode {
	h := height(l)
	if hr := height(r); hr > h {
		h = hr
	}
	n := &pnode{key: src.key, tup: src.tup, left: l, right: r, h: h + 1}
	if lines := src.lines.Load(); lines != nil {
		n.lines.Store(lines)
	}
	return n
}

// bal is mk that restores the balance invariant after one side changed
// height by at most one.
func bal(l, src, r *pnode) *pnode {
	hl, hr := height(l), height(r)
	switch {
	case hl > hr+2:
		if height(l.left) >= height(l.right) {
			return mk(l.left, l, mk(l.right, src, r))
		}
		lr := l.right
		return mk(mk(l.left, l, lr.left), lr, mk(lr.right, src, r))
	case hr > hl+2:
		if height(r.right) >= height(r.left) {
			return mk(mk(l, src, r.left), r, r.right)
		}
		rl := r.left
		return mk(mk(l, src, rl.left), rl, mk(rl.right, r, r.right))
	}
	return mk(l, src, r)
}

// get returns the row with key k.
func (r prel) get(k data.Value) (data.Tuple, bool) {
	n := r.root
	for n != nil {
		switch {
		case k < n.key:
			n = n.left
		case k > n.key:
			n = n.right
		default:
			return n.tup, true
		}
	}
	return nil, false
}

// with returns the relation with row t stored under key k, replacing any
// row with that key.
func (r prel) with(k data.Value, t data.Tuple) prel {
	root, added := insert(r.root, k, t)
	if added {
		r.n++
	}
	r.root = root
	return r
}

func insert(n *pnode, k data.Value, t data.Tuple) (*pnode, bool) {
	if n == nil {
		return &pnode{key: k, tup: t, h: 1}, true
	}
	switch {
	case k < n.key:
		l, added := insert(n.left, k, t)
		return bal(l, n, n.right), added
	case k > n.key:
		r, added := insert(n.right, k, t)
		return bal(n.left, n, r), added
	}
	return &pnode{key: k, tup: t, left: n.left, right: n.right, h: n.h}, false
}

// without returns the relation with the row of key k removed, and whether
// it was present. An absent key returns the receiver unchanged.
func (r prel) without(k data.Value) (prel, bool) {
	if _, ok := r.get(k); !ok {
		return r, false
	}
	r.root = remove(r.root, k)
	r.n--
	return r, true
}

func remove(n *pnode, k data.Value) *pnode {
	switch {
	case k < n.key:
		return bal(remove(n.left, k), n, n.right)
	case k > n.key:
		return bal(n.left, n, remove(n.right, k))
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
	return bal(n.left, m, removeMin(n.right))
}

func removeMin(n *pnode) *pnode {
	if n.left == nil {
		return n.right
	}
	return bal(removeMin(n.left), n, n.right)
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
