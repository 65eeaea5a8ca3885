package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"collabwf/internal/client"
	"collabwf/internal/obs"
)

// conn is one closed-loop client: one goroutine, one keep-alive
// connection. It times every call and, when traced, wraps each in a span
// whose id the server's route span joins through traceparent.
type conn struct {
	c      *client.Client
	rt     *transport
	tracer *obs.Tracer
	calls  []call
}

// call is one client request as the benchmark timed it.
type call struct {
	kind    string
	traceID string
	start   time.Time
	dur     time.Duration
	bytes   int64 // response body bytes
	err     error // nil when the call succeeded
}

// transport injects the caller's traceparent and counts response bytes.
type transport struct {
	base  *http.Transport
	bytes atomic.Int64
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if obs.SpanFrom(req.Context()) != nil {
		req = req.Clone(req.Context())
		obs.InjectTraceparent(req.Context(), req.Header)
	}
	resp, err := t.base.RoundTrip(req)
	if resp != nil {
		resp.Body = &countingBody{resp.Body, &t.bytes}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// newConn returns a client of base that never retries: a failed call is a
// failed operation, not a hidden second attempt.
func newConn(base string, rnd *rand.Rand, traced bool) *conn {
	rt := &transport{base: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
	cn := &conn{rt: rt, c: client.New(base, client.Options{
		HTTPClient:     &http.Client{Transport: rt},
		RequestTimeout: 60 * time.Second,
		MaxRetries:     -1,
		Rand:           rnd,
	})}
	if traced {
		// The client's own spans only carry trace identity to the server;
		// the timings are kept in calls, so the recorder retains nothing.
		cn.tracer = obs.NewTracer(obs.TracerOptions{Policy: obs.SampleOnError})
	}
	return cn
}

// close closes the client's idle connection, so a round that ends leaves
// none behind on a server the next round keeps using.
func (cn *conn) close() { cn.rt.base.CloseIdleConnections() }

// together runs n closed-loop clients, each on its own goroutine and
// connection, and returns once all are done: the wall time they took and
// every call they made, in start order.
func (r *runner) together(p *proc, n int, client func(c int, cn *conn)) *roundOut {
	cns := make([]*conn, n)
	for c := range cns {
		cns[c] = newConn(p.base, clientRand(r.seed, 100+c), r.traced)
	}
	var wg sync.WaitGroup
	start := time.Now()
	for c, cn := range cns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client(c, cn)
		}()
	}
	wg.Wait()
	out := &roundOut{dur: time.Since(start)}
	for _, cn := range cns {
		cn.close()
		out.calls = append(out.calls, cn.calls...)
	}
	sort.SliceStable(out.calls, func(i, j int) bool { return out.calls[i].start.Before(out.calls[j].start) })
	return out
}

// result is what one call returned.
type result struct {
	index int    // submit: the event's index
	text  string // view or explain text
	trans []client.Transition
	len   int // transitions: released run length
}

// do issues o (from is the transitions poll start) and records its timing.
func (cn *conn) do(ctx context.Context, o op, from int) (result, error) {
	if cn.tracer != nil {
		var sp *obs.Span
		ctx, sp = obs.StartSpan(obs.ContextWithTracer(ctx, cn.tracer), "client."+o.Kind)
		defer sp.End()
	}
	c := cn.c
	if o.Run != "" && o.Kind != opCreate && o.Kind != opArchive {
		c = c.ForRun(o.Run)
	}
	before := cn.rt.bytes.Load()
	start := time.Now()
	var res result
	var err error
	switch o.Kind {
	case opSubmit:
		var sr *client.SubmitResult
		if sr, err = c.Submit(ctx, o.Peer, o.Rule, o.Bindings); err == nil {
			res.index = sr.Index
		}
	case opView:
		res.text, err = c.View(ctx, o.Peer)
	case opExplain:
		res.text, err = c.Explain(ctx, o.Peer)
	case opTransitions:
		res.trans, res.len, err = c.Transitions(ctx, o.Peer, from)
	case opCreate:
		err = c.CreateRun(ctx, o.Run)
	case opArchive:
		err = c.DeleteRun(ctx, o.Run)
	default:
		err = fmt.Errorf("unknown op kind %q", o.Kind)
	}
	cl := call{kind: o.Kind, start: start, dur: time.Since(start), bytes: cn.rt.bytes.Load() - before}
	if sp := obs.SpanFrom(ctx); sp != nil {
		cl.traceID = sp.TraceID()
	}
	if err != nil {
		cl.err = fmt.Errorf("%s %s %s %s: %w", o.Kind, o.Run, o.Peer, o.Rule, err)
	}
	cn.calls = append(cn.calls, cl)
	return res, cl.err
}
