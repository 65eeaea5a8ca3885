// Package client is the resilient typed HTTP client for the coordinator
// API (/submit, /view, /explain, /certify and the probes). It exists so
// callers do not reimplement the failure discipline the server's
// guarantees assume:
//
//   - every request runs under a per-attempt deadline;
//   - retryable failures (connection errors, 429, 503, 5xx) are retried
//     with capped exponential backoff and full jitter, honoring the
//     server's Retry-After hint;
//   - every submission carries an Idempotency-Key, so a retry after an
//     ambiguous failure — the connection dropped after the batch fsynced —
//     returns the original result instead of double-applying the event.
//
// Definite rejections (4xx other than 429: guard violations, inapplicable
// rules, unknown peers) are returned immediately, never retried.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// SubmitResult mirrors the server's /submit response.
type SubmitResult struct {
	Index     int      `json:"index"`
	Updates   []string `json:"updates"`
	VisibleAt []string `json:"visibleAt"`
}

// APIError is a non-2xx response from the server, with the decoded error
// body and the Retry-After hint (seconds, 0 if absent).
type APIError struct {
	Status     int
	Msg        string
	RetryAfter int
}

func (e *APIError) Error() string {
	return fmt.Sprintf("server returned %d: %s", e.Status, e.Msg)
}

// Temporary reports whether the failure is worth retrying: overload (429),
// unavailability (503, the server's retry-safe submission failures) and
// other 5xx. A retried /submit is safe either way — the idempotency key
// dedupes a request whose first attempt actually landed.
func (e *APIError) Temporary() bool {
	return e.Status == http.StatusTooManyRequests || e.Status >= 500
}

// Options tunes the client.
type Options struct {
	// HTTPClient is the transport; nil means a dedicated http.Client.
	HTTPClient *http.Client
	// RequestTimeout bounds each attempt (not the whole retry loop);
	// ≤ 0 means 10s.
	RequestTimeout time.Duration
	// MaxRetries is how many times a retryable failure is retried
	// (attempts = MaxRetries + 1); < 0 disables retries, 0 means 8.
	MaxRetries int
	// BaseBackoff is the first retry delay (doubles per attempt);
	// ≤ 0 means 50ms.
	BaseBackoff time.Duration
	// MaxBackoff caps both the computed backoff and an honored Retry-After;
	// ≤ 0 means 5s.
	MaxBackoff time.Duration
	// Rand seeds the backoff jitter and the idempotency-key prefix, for
	// reproducible runs (the chaos harness); nil uses a random seed.
	Rand *rand.Rand
	// Logger, when non-nil, logs each retry at debug level.
	Logger *slog.Logger
}

// Client is a resilient coordinator API client. Safe for concurrent use.
// The mutable state lives behind pointers so ForRun can derive run-scoped
// clients that share one transport, key sequence and retry counter.
type Client struct {
	base string
	http *http.Client
	opts Options

	// keyPrefix + keySeq generate process-unique idempotency keys.
	keyPrefix string
	keySeq    *atomic.Int64

	// mu guards rnd (rand.Rand is not goroutine-safe).
	mu  *sync.Mutex
	rnd *rand.Rand

	// retries counts retried attempts, for reporting.
	retries *atomic.Int64
}

// New returns a client for the coordinator at baseURL (e.g.
// "http://127.0.0.1:8080").
func New(baseURL string, opts Options) *Client {
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = 10 * time.Second
	}
	if opts.MaxRetries == 0 {
		opts.MaxRetries = 8
	}
	if opts.MaxRetries < 0 {
		opts.MaxRetries = 0
	}
	if opts.BaseBackoff <= 0 {
		opts.BaseBackoff = 50 * time.Millisecond
	}
	if opts.MaxBackoff <= 0 {
		opts.MaxBackoff = 5 * time.Second
	}
	rnd := opts.Rand
	if rnd == nil {
		rnd = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	hc := opts.HTTPClient
	if hc == nil {
		hc = &http.Client{}
	}
	return &Client{
		base:      baseURL,
		http:      hc,
		opts:      opts,
		keyPrefix: fmt.Sprintf("%08x", rnd.Uint32()),
		keySeq:    new(atomic.Int64),
		mu:        new(sync.Mutex),
		rnd:       rnd,
		retries:   new(atomic.Int64),
	}
}

// Retries reports how many retried attempts the client has issued.
func (c *Client) Retries() int64 { return c.retries.Load() }

// ForRun returns a client scoped to one run of a fleet server: every call
// routes under /runs/{id}/... . The derived client shares the parent's
// transport, retry policy, idempotency-key generator and retry counter, so
// keys stay process-unique across runs and Retries() reports fleet-wide.
func (c *Client) ForRun(id string) *Client {
	out := *c
	out.base = c.base + "/runs/" + id
	return &out
}

// CreateRun creates a run on a fleet server. Creation is not idempotent on
// the server (a second create of the same id answers 409), so it runs as a
// single attempt — the caller decides whether an "already exists" after an
// ambiguous first attempt is success.
func (c *Client) CreateRun(ctx context.Context, id string) error {
	body, err := json.Marshal(map[string]string{"id": id})
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	return c.attempt(ctx, http.MethodPost, "/runs", body, nil, &struct{}{})
}

// DeleteRun archives a run: its WAL is synced and closed; the id
// disappears from routing.
func (c *Client) DeleteRun(ctx context.Context, id string) error {
	return c.attempt(ctx, http.MethodDelete, "/runs/"+id, nil, nil, &struct{}{})
}

// NewKey returns a fresh process-unique idempotency key.
func (c *Client) NewKey() string {
	return fmt.Sprintf("%s-%d", c.keyPrefix, c.keySeq.Add(1))
}

// Submit fires one rule for a peer, stamping a fresh idempotency key so
// retries cannot double-apply the event.
func (c *Client) Submit(ctx context.Context, peer, rule string, bindings map[string]string) (*SubmitResult, error) {
	return c.SubmitIdem(ctx, peer, rule, bindings, c.NewKey())
}

// SubmitIdem is Submit with an explicit idempotency key: two calls with
// the same key apply the event at most once, and the second returns the
// first's result. An empty key disables deduplication.
func (c *Client) SubmitIdem(ctx context.Context, peer, rule string, bindings map[string]string, key string) (*SubmitResult, error) {
	body, err := json.Marshal(map[string]any{"peer": peer, "rule": rule, "bindings": bindings})
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	var header http.Header
	if key != "" {
		header = http.Header{"Idempotency-Key": {key}}
	}
	var res SubmitResult
	if err := c.do(ctx, http.MethodPost, "/submit", body, header, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// View returns the peer's rendered view of the database.
func (c *Client) View(ctx context.Context, peer string) (string, error) {
	var out struct {
		View string `json:"view"`
	}
	if err := c.do(ctx, http.MethodGet, "/view?peer="+peer, nil, nil, &out); err != nil {
		return "", err
	}
	return out.View, nil
}

// Explain returns the peer's runtime explanation report as rendered text.
func (c *Client) Explain(ctx context.Context, peer string) (string, error) {
	var out struct {
		Text string `json:"text"`
	}
	if err := c.do(ctx, http.MethodGet, "/explain?peer="+peer, nil, nil, &out); err != nil {
		return "", err
	}
	return out.Text, nil
}

// Transition is one /transitions entry as a polling client sees it: the
// wire form of the server's Notification.
type Transition struct {
	Index   int    `json:"index"`
	Omega   bool   `json:"omega"`
	Rule    string `json:"rule,omitempty"`
	View    string `json:"view"`
	Because []int  `json:"because,omitempty"`
}

// Transitions polls the peer's visible transitions with index ≥ from, and
// returns them with the released run length — both fields answered from one
// server snapshot, so the pair is mutually consistent.
func (c *Client) Transitions(ctx context.Context, peer string, from int) ([]Transition, int, error) {
	var out struct {
		Transitions []Transition `json:"transitions"`
		Len         int          `json:"len"`
	}
	path := fmt.Sprintf("/transitions?peer=%s&from=%d", peer, from)
	if err := c.do(ctx, http.MethodGet, path, nil, nil, &out); err != nil {
		return nil, 0, err
	}
	return out.Transitions, out.Len, nil
}

// Certify runs the static deciders (h-boundedness, then transparency) for
// the peer. A violation comes back as a definite *APIError (409).
func (c *Client) Certify(ctx context.Context, peer string, h int) error {
	path := fmt.Sprintf("/certify?peer=%s&h=%d", peer, h)
	return c.do(ctx, http.MethodGet, path, nil, nil, &struct{}{})
}

// Ready polls /readyz once (no retries): nil means the coordinator has
// recovered and the WAL accepts appends.
func (c *Client) Ready(ctx context.Context) error {
	return c.attempt(ctx, http.MethodGet, "/readyz", nil, nil, &struct{}{})
}

// Post sends body to the base URL, with no API path appended, under the
// retry policy and with the given request headers (e.g. a Content-Type
// other than JSON); the response body is discarded. It serves endpoints
// outside the coordinator API, such as a decision-log collector.
func (c *Client) Post(ctx context.Context, body []byte, header http.Header) error {
	return c.do(ctx, http.MethodPost, "", body, header, nil)
}

// do runs one API call under the retry policy.
func (c *Client) do(ctx context.Context, method, path string, body []byte, header http.Header, out any) error {
	backoff := c.opts.BaseBackoff
	var lastErr error
	for attempt := 0; ; attempt++ {
		err := c.attempt(ctx, method, path, body, header, out)
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		var ae *APIError
		if errors.As(err, &ae) && !ae.Temporary() {
			return err
		}
		lastErr = err
		if attempt >= c.opts.MaxRetries {
			break
		}
		sleep := c.jitter(backoff)
		if ae != nil && ae.RetryAfter > 0 {
			if ra := time.Duration(ae.RetryAfter) * time.Second; ra > sleep {
				sleep = ra
			}
		}
		if sleep > c.opts.MaxBackoff {
			sleep = c.opts.MaxBackoff
		}
		if l := c.opts.Logger; l != nil {
			l.Debug("retrying", slog.String("url", c.base+path), slog.Int("attempt", attempt+1),
				slog.Duration("sleep", sleep), slog.Any("error", err))
		}
		c.retries.Add(1)
		select {
		case <-time.After(sleep):
		case <-ctx.Done():
			return ctx.Err()
		}
		backoff *= 2
		if backoff > c.opts.MaxBackoff {
			backoff = c.opts.MaxBackoff
		}
	}
	return fmt.Errorf("client: %s %s: giving up after %d attempts: %w",
		method, c.base+path, c.opts.MaxRetries+1, lastErr)
}

// attempt runs one HTTP round trip under the per-attempt deadline. A body
// is sent as JSON unless header sets its own Content-Type.
func (c *Client) attempt(ctx context.Context, method, path string, body []byte, header http.Header, out any) error {
	actx, cancel := context.WithTimeout(ctx, c.opts.RequestTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, c.base+path, rd)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, vv := range header {
		req.Header[k] = vv
	}
	resp, err := c.http.Do(req)
	if err != nil {
		// Connection refused, reset, or the attempt deadline: all ambiguous
		// (the request may have landed) — retryable under the key.
		return fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		ae := &APIError{Status: resp.StatusCode}
		if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
			ae.RetryAfter = ra
		}
		var eb struct {
			Error string `json:"error"`
		}
		if derr := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&eb); derr == nil {
			ae.Msg = eb.Error
		}
		return ae
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return fmt.Errorf("client: decoding %s response: %w", path, err)
		}
	}
	return nil
}

// jitter draws a full-jitter delay in [d/2, d].
func (c *Client) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	half := d / 2
	return half + time.Duration(c.rnd.Int63n(int64(half)+1))
}
