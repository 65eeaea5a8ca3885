package server

import (
	"context"

	"collabwf/internal/data"
	"collabwf/internal/declog"
	"collabwf/internal/obs"
	"collabwf/internal/schema"
	"collabwf/internal/wal"
)

// idemEntry tracks one idempotency key. While the original submission is
// in flight, concurrent retries wait on done; once it resolves, res holds
// the outcome. Only successful entries stay in the map — a failed
// submission deletes its key (under the same lock that closes done), so a
// corrected retry executes instead of replaying the failure.
type idemEntry struct {
	done chan struct{}
	res  *SubmitResult
	err  error
}

// defaultIdemWindow bounds the dedupe window when DurabilityConfig (or the
// caller) does not choose one.
const defaultIdemWindow = 4096

// SubmitIdemCtx is SubmitCtx with an idempotency key. If the key was
// already accepted within the dedupe window, the original result is
// returned without re-applying the event; if an identical submission is
// still in flight, the call waits for it and shares its outcome. The key
// travels inside the event's WAL record and the recent window rides in
// every snapshot, so dedupe survives crash recovery — the guarantee a
// client retrying after an ambiguous failure (ErrUnavailable) relies on.
// An empty key degrades to SubmitCtx. The window belongs to this
// coordinator, so the same key sent to two runs of a fleet dedupes per run.
func (c *Coordinator) SubmitIdemCtx(ctx context.Context, peer schema.Peer, ruleName string, bindings map[string]data.Value, key string) (*SubmitResult, error) {
	if key == "" {
		return c.submitCtx(ctx, peer, ruleName, bindings, "")
	}
	c.mu.Lock()
	for {
		ent, ok := c.idem[key]
		if !ok {
			break
		}
		select {
		case <-ent.done:
		default:
			// The original is still in flight: wait off-lock, then re-check —
			// the entry may have resolved either way, or been deleted.
			c.mu.Unlock()
			select {
			case <-ent.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			c.mu.Lock()
		}
		// A failed original deleted its entry before closing done (both
		// under the lock): look again. A successful one is replayed — the
		// client is acked again for an already-applied submission, so the
		// decision is recorded even though no event is appended.
		if ent.err == nil {
			c.mu.Unlock()
			c.decide(ctx, obs.SpanFrom(ctx), declog.Decision{Kind: declog.KindSubmit, Decision: declog.Replayed,
				Peer: string(peer), Rule: ruleName, Index: ent.res.Index, RunLen: ent.res.Index, IdemKey: key}, nil)
			return ent.res, nil
		}
	}
	ent := &idemEntry{done: make(chan struct{})}
	c.idem[key] = ent
	c.mu.Unlock()

	res, err := c.submitCtx(ctx, peer, ruleName, bindings, key)

	c.mu.Lock()
	ent.res, ent.err = res, err
	if err != nil {
		// Not applied (a crash-ambiguous record, if durable, is rediscovered
		// from the WAL at recovery); free the key so a retry can execute.
		delete(c.idem, key)
	} else {
		c.idemOrder = append(c.idemOrder, key)
		c.evictIdemLocked()
	}
	close(ent.done)
	c.mu.Unlock()
	return res, err
}

// evictIdemLocked trims the dedupe window to its bound, oldest key first.
// Callers hold the lock.
func (c *Coordinator) evictIdemLocked() {
	max := c.idemMax
	if max <= 0 {
		max = defaultIdemWindow
	}
	for len(c.idemOrder) > max {
		delete(c.idem, c.idemOrder[0])
		c.idemOrder = c.idemOrder[1:]
	}
}

// addIdemLocked installs a recovered (already-resolved) idempotency entry:
// the result is rebuilt from the recovered run so a post-crash retry gets
// the same answer the original submission did. Callers hold the lock (or
// own the coordinator exclusively, as NewDurable does).
func (c *Coordinator) addIdemLocked(key string, index int) {
	if _, ok := c.idem[key]; ok {
		return
	}
	done := make(chan struct{})
	close(done)
	c.idem[key] = &idemEntry{done: done, res: c.resultLocked(index)}
	c.idemOrder = append(c.idemOrder, key)
	c.evictIdemLocked()
}

// idemWindowLocked exports the resolved dedupe window in FIFO order, for
// snapshots. Callers hold the lock.
func (c *Coordinator) idemWindowLocked() []wal.IdemEntry {
	if len(c.idemOrder) == 0 {
		return nil
	}
	out := make([]wal.IdemEntry, 0, len(c.idemOrder))
	for _, k := range c.idemOrder {
		if ent := c.idem[k]; ent != nil && ent.res != nil {
			out = append(out, wal.IdemEntry{Key: k, Index: ent.res.Index})
		}
	}
	return out
}
