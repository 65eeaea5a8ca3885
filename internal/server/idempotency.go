package server

import (
	"context"
	"slices"

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

// defaultIdemWindow bounds the dedupe window when DurabilityConfig does not
// choose one.
const defaultIdemWindow = 4096

// SubmitIdemCtx is Submit with a caller context, whose span the submission
// joins, and an idempotency key. If the key was already accepted within the
// dedupe window, the original result is returned without re-applying the
// event; if an identical submission is still in flight, the call waits for
// it and shares its outcome. The key travels inside the event's WAL record,
// from which recovery rebuilds the window, so dedupe survives crash
// recovery — the guarantee a client retrying after an ambiguous failure
// (ErrUnavailable) relies on. An empty key submits without dedupe. The
// window belongs to this coordinator, so the same key sent to two runs of a
// fleet dedupes per run.
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
	for len(c.idemOrder) > c.idemMax {
		delete(c.idem, c.idemOrder[0])
		c.idemOrder = c.idemOrder[1:]
	}
}

// recoverIdemLocked rebuilds the dedupe window after recovery from the
// keyed records' (key, index) pairs, newest first, then from a legacy
// snapshot's window, whose keys are older than the records past its
// prefix. It stops once the window is full, so only the kept keys get a
// result built: one rebuilt from the recovered run, the answer the
// original submission got. A key seen twice keeps its newest index, as the
// live window does. Callers own the coordinator exclusively, as NewDurable
// does.
func (c *Coordinator) recoverIdemLocked(legacy, keyed []wal.IdemEntry) {
	keep := func(key string, index int) {
		if key == "" || c.idem[key] != nil {
			return
		}
		done := make(chan struct{})
		close(done)
		c.idem[key] = &idemEntry{done: done, res: c.resultLocked(index)}
		c.idemOrder = append(c.idemOrder, key)
	}
	for i := len(keyed) - 1; i >= 0 && len(c.idemOrder) < c.idemMax; i-- {
		keep(keyed[i].Key, keyed[i].Index)
	}
	for i := len(legacy) - 1; i >= 0 && len(c.idemOrder) < c.idemMax; i-- {
		keep(legacy[i].Key, legacy[i].Index)
	}
	slices.Reverse(c.idemOrder) // oldest first, the order eviction expects
}
