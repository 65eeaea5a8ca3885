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
// valid and unchanged. A node holds its row by pointer (Row), so copying a
// node never copies the row. The zero value is the empty relation.
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

// Row is a stored row, in 32 bytes: an immutable tuple together with the
// memo of how each view sees it. A write stores a new Row; every tree
// version, every recorded effect and every redone step that holds the row
// shares the one record, and with it the memo.
type Row struct {
	tup data.Tuple
	// views memoizes each view's selection verdict on tup (see rowView),
	// so a row's selections run once per view for as long as it is
	// stored, not once per version.
	views atomic.Pointer[rowView]
}

// Tuple returns the row's tuple, nil for a nil row. It is the instance's
// own: callers must not modify it.
func (r *Row) Tuple() data.Tuple {
	if r == nil {
		return nil
	}
	return r.tup
}

// Key returns the row's key, its first value.
func (r *Row) Key() data.Value { return r.tup[0] }

// pnode is a tree node: 32 bytes, a row pointer, two links and one word
// holding the node's height and the token of the edit that allocated it.
type pnode struct {
	row         *Row
	left, right *pnode
	// meta is the height in its low heightBits bits and the edit token
	// above them; a node a persistent write allocated has token 0.
	meta uint64
}

const heightBits = 8

// edit is a transient instance's edit token, unique per token ever
// handed out; 0 is no token (a persistent write).
type edit uint64

// editTokens hands out edit tokens.
var editTokens atomic.Uint64

// newEdit returns a token no node carries yet.
func newEdit() edit { return edit(editTokens.Add(1)) }

// owns reports whether n may be rewritten in place by a write under ed:
// ed is a live token and tagged n.
func (ed edit) owns(n *pnode) bool { return ed != 0 && n.meta>>heightBits == uint64(ed) }

// node returns a node of height h holding row between l and r, tagged
// with ed.
func (ed edit) node(row *Row, l, r *pnode, h int) *pnode {
	return &pnode{row: row, left: l, right: r, meta: uint64(ed)<<heightBits | uint64(h)}
}

func height(n *pnode) int {
	if n == nil {
		return 0
	}
	return int(n.meta & (1<<heightBits - 1))
}

// mk builds a node holding src's row between l and r. A src that ed owns
// is that node, relinked in place. Each write passes a node as src at most
// once, after reading its links, and drops it from its old position, so
// relinking it cannot disturb the tree.
func (ed edit) mk(l, src, r *pnode) *pnode {
	h := max(height(l), height(r)) + 1
	if ed.owns(src) {
		src.left, src.right = l, r
		src.meta = src.meta&^(1<<heightBits-1) | uint64(h)
		return src
	}
	return ed.node(src.row, l, r, h)
}

// bal is mk that restores the balance invariant after one side changed
// height by at most one.
func (ed edit) bal(l, src, r *pnode) *pnode {
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

// get returns the row with key k, nil when absent.
func (r prel) get(k data.Value) *Row {
	n := r.root
	for n != nil {
		switch c := compare(k, n.key()); {
		case c < 0:
			n = n.left
		case c > 0:
			n = n.right
		default:
			return n.row
		}
	}
	return nil
}

// key returns the node's key, the first value of its row.
func (n *pnode) key() data.Value { return n.row.tup[0] }

// compare orders keys with one comparison per tree level, where k < n.key()
// and then k > n.key() would make two.
func compare(a, b data.Value) int { return strings.Compare(string(a), string(b)) }

// with returns the relation with row t stored under its key, replacing any
// row with that key. The write is made under ed (0: path-copying only).
func (r prel) with(t *Row, ed edit) prel {
	root, added := ed.insert(r.root, t.Key(), t)
	if added {
		r.n++
	}
	r.root = root
	return r
}

func (ed edit) insert(n *pnode, k data.Value, t *Row) (*pnode, bool) {
	if n == nil {
		return ed.node(t, nil, nil, 1), true
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
		n.row = t
		return n, false
	}
	return ed.node(t, n.left, n.right, height(n)), false
}

// without returns the relation with the row of key k removed, and whether
// it was present. An absent key returns the receiver unchanged. The write
// is made under ed (0: path-copying only).
func (r prel) without(k data.Value, ed edit) (prel, bool) {
	if r.get(k) == nil {
		return r, false
	}
	r.root = ed.remove(r.root, k)
	r.n--
	return r, true
}

func (ed edit) remove(n *pnode, k data.Value) *pnode {
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

func (ed edit) removeMin(n *pnode) *pnode {
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
		if !walk(n.left, fn) || !fn(n.row.tup) {
			return false
		}
		n = n.right
	}
	return true
}
