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

// idemFlight is a keyed submission in flight: concurrent retries of its
// key wait on done, then read its outcome. Once it resolves, an accepted
// submission's key keeps only its index in the window (Coordinator.idem),
// and a replay rebuilds the result from the run; a failed one leaves no
// trace, so a corrected retry executes instead of replaying the failure.
type idemFlight struct {
	done  chan struct{}
	index int
	err   error
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
		if idx, ok := c.idem[key]; ok {
			return c.replayIdemLocked(ctx, peer, ruleName, key, idx), nil
		}
		fl, ok := c.idemFlight[key]
		if !ok {
			break
		}
		// The original is still in flight: wait off-lock, then replay its
		// outcome, or look again if it failed.
		c.mu.Unlock()
		select {
		case <-fl.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		c.mu.Lock()
		if fl.err == nil {
			return c.replayIdemLocked(ctx, peer, ruleName, key, fl.index), nil
		}
	}
	fl := &idemFlight{done: make(chan struct{})}
	c.idemFlight[key] = fl
	c.mu.Unlock()

	res, err := c.submitCtx(ctx, peer, ruleName, bindings, key)

	c.mu.Lock()
	delete(c.idemFlight, key)
	fl.err = err
	if err == nil {
		fl.index = res.Index
		c.idem[key] = res.Index
		c.idemOrder = append(c.idemOrder, key)
		c.evictIdemLocked()
	}
	// A failed original is not applied (a crash-ambiguous record, if
	// durable, is rediscovered from the WAL at recovery): its key is free
	// for a retry to execute.
	close(fl.done)
	c.mu.Unlock()
	return res, err
}

// replayIdemLocked answers a retry of the accepted submission idx with the
// result the original got, rebuilt from the run, and records the replay: the
// client is acked again for an already-applied submission, so the decision
// is recorded even though no event is appended. Callers hold the lock;
// replayIdemLocked releases it.
func (c *Coordinator) replayIdemLocked(ctx context.Context, peer schema.Peer, ruleName, key string, idx int) *SubmitResult {
	res := c.resultLocked(idx)
	c.mu.Unlock()
	c.decide(ctx, obs.SpanFrom(ctx), declog.Decision{Kind: declog.KindSubmit, Decision: declog.Replayed,
		Peer: string(peer), Rule: ruleName, Index: idx, RunLen: idx, IdemKey: key}, nil)
	return res
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
// keyed records' (key, index) pairs, newest first, until the window is
// full. A key seen twice keeps its newest index, as the live window does.
// Callers own the coordinator exclusively, as NewDurable does.
func (c *Coordinator) recoverIdemLocked(keyed []wal.IdemEntry) {
	for i := len(keyed) - 1; i >= 0 && len(c.idemOrder) < c.idemMax; i-- {
		if _, ok := c.idem[keyed[i].Key]; !ok {
			c.idem[keyed[i].Key] = keyed[i].Index
			c.idemOrder = append(c.idemOrder, keyed[i].Key)
		}
	}
	slices.Reverse(c.idemOrder) // oldest first, the order eviction expects
}
