package transparency

import (
	"collabwf/internal/data"
	"collabwf/internal/program"
	"collabwf/internal/schema"
)

// The bounded searches identify states by 64-bit FNV-1a hashes instead of
// the canonical strings they used to concatenate: fingerprinting was the
// dominant allocation site of the deciders (every explored node built and
// retained a multi-kilobyte key). A hash can collide where the strings
// could not; at 64 bits the chance of any collision among the ≤4M states
// the default budgets allow is below 1e-6, and a collision can only make
// the dedup/memo layer merge two distinct states — it is therefore used
// only where the original string fingerprints were used for deduplication
// and caching. The p-view grouping of CheckTransparent, where a false
// merge could fabricate a violation witness, stays on exact strings.

const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// hash64 is an incremental FNV-1a hasher.
type hash64 uint64

func newHash64() hash64 { return hash64(fnvOffset64) }

func (h *hash64) writeByte(b byte) {
	*h = hash64((uint64(*h) ^ uint64(b)) * fnvPrime64)
}

func (h *hash64) writeString(s string) {
	x := uint64(*h)
	for i := 0; i < len(s); i++ {
		x = (x ^ uint64(s[i])) * fnvPrime64
	}
	*h = hash64(x)
}

func (h *hash64) sum() uint64 { return uint64(*h) }

// hashInstance hashes an instance under the same canonical tuple order as
// Instance.Fingerprint (relations in schema order, tuples by key), without
// materializing the string.
func hashInstance(in *schema.Instance) uint64 {
	h := newHash64()
	for _, name := range in.DB().Names() {
		h.writeString(name)
		h.writeByte(0x01)
		for _, t := range in.Tuples(name) {
			writeTuple(&h, t)
		}
		h.writeByte(0x02)
	}
	return h.sum()
}

func writeTuple(h *hash64, t data.Tuple) {
	for _, v := range t {
		h.writeString(string(v))
		h.writeByte(0x00)
	}
	h.writeByte(0x03)
}

// hashCanonical is the hash analogue of the former canonicalFingerprint: it
// renames the fresh pool constants of in to #1, #2, … by order of first
// appearance (relations in schema order, tuples by original key) and hashes
// the renamed instance with tuples re-sorted by renamed key. The partition
// it induces on instances is exactly the one the canonical strings induced
// (renaming is applied the same way; re-keyed tuples overwrite per the same
// map semantics), so the isomorphism dedup of Lemma A.2 is unchanged.
func hashCanonical(in *schema.Instance, fresh data.ValueSet) uint64 {
	ren := make(map[data.Value]data.Value)
	next := 0
	h := newHash64()
	canonKeys := make([]data.Value, 0, 8)
	canonRows := make(map[data.Value]data.Tuple, 8)
	for _, name := range in.DB().Names() {
		for _, t := range in.Tuples(name) {
			ct := t.Clone()
			for i, v := range ct {
				if !fresh.Has(v) {
					continue
				}
				r, ok := ren[v]
				if !ok {
					next++
					r = data.Value(canonName(next))
					ren[v] = r
				}
				ct[i] = r
			}
			if _, dup := canonRows[ct.Key()]; !dup {
				canonKeys = append(canonKeys, ct.Key())
			}
			canonRows[ct.Key()] = ct
		}
		data.SortValues(canonKeys)
		h.writeString(name)
		h.writeByte(0x01)
		for _, k := range canonKeys {
			writeTuple(&h, canonRows[k])
		}
		h.writeByte(0x02)
		canonKeys = canonKeys[:0]
		clear(canonRows)
	}
	return h.sum()
}

// canonName formats the canonical fresh-constant names #1, #2, … without
// fmt overhead.
func canonName(n int) string {
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	i--
	buf[i] = '#'
	return string(buf[i:])
}

// hashEvent hashes an event identity (rule name plus valuation) compatibly
// with Event.Fingerprint's rule-name + sorted-valuation rendering.
func hashEvent(h *hash64, e *program.Event) {
	h.writeString(e.Rule.Name)
	h.writeByte(0x04)
	vars := e.Rule.Layout().Vars
	for i, x := range e.Vals() {
		h.writeString(vars[i])
		h.writeByte(0x00)
		h.writeString(string(x))
		h.writeByte(0x00)
	}
	h.writeByte(0x05)
}
