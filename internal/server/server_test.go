package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"collabwf/internal/data"
	"collabwf/internal/design"
	"collabwf/internal/program"
	"collabwf/internal/schema"
	"collabwf/internal/trace"
	"collabwf/internal/workload"
)

// newCoordinator builds a coordinator from cfg, failing the test on error.
func newCoordinator(t *testing.T, name string, p *program.Program, cfg DurabilityConfig) *Coordinator {
	t.Helper()
	c, err := NewDurable(name, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSubmitFlowAndExplain(t *testing.T) {
	c := New("Hiring", workload.Hiring())
	res, err := c.Submit("hr", "clear", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Index != 0 || len(res.Updates) != 1 {
		t.Fatalf("result=%+v", res)
	}
	cand := data.Value(strings.TrimSuffix(strings.TrimPrefix(res.Updates[0], "+Cleared("), ")"))
	if _, err := c.Submit("cfo", "cfo_ok", map[string]data.Value{"x": cand}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit("ceo", "approve", map[string]data.Value{"x": cand}); err != nil {
		t.Fatal(err)
	}
	hire, err := c.Submit("hr", "hire", map[string]data.Value{"x": cand})
	if err != nil {
		t.Fatal(err)
	}
	foundSue := false
	for _, p := range hire.VisibleAt {
		if p == "sue" {
			foundSue = true
		}
	}
	if !foundSue {
		t.Fatalf("hire must be visible at sue: %v", hire.VisibleAt)
	}
	rep, err := c.Explain("sue")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Transitions) != 2 {
		t.Fatalf("sue's transitions: %d", len(rep.Transitions))
	}
	seq, err := c.Scenario("sue")
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != 4 {
		t.Fatalf("scenario=%v", seq)
	}
}

func TestSubmitValidation(t *testing.T) {
	c := New("Hiring", workload.Hiring())
	if _, err := c.Submit("hr", "nope", nil); err == nil {
		t.Fatal("unknown rule must be rejected")
	}
	if _, err := c.Submit("sue", "clear", nil); err == nil {
		t.Fatal("submitting another peer's rule must be rejected")
	}
	if _, err := c.Submit("ceo", "approve", map[string]data.Value{"x": "ghost"}); err == nil {
		t.Fatal("inapplicable rule must be rejected")
	}
	if _, err := c.View("nobody"); err == nil {
		t.Fatal("unknown peer view must be rejected")
	}
}

func TestGuardRejectsViolations(t *testing.T) {
	staged, err := design.Staged(workload.Hiring(), "sue")
	if err != nil {
		t.Fatal(err)
	}
	c := New("Staged", staged)
	if err := c.Guard("sue", 2); err != nil {
		t.Fatal(err)
	}
	mustSubmit := func(peer schema.Peer, rule string, bind map[string]data.Value) *SubmitResult {
		t.Helper()
		res, err := c.Submit(peer, rule, bind)
		if err != nil {
			t.Fatalf("%s: %v", rule, err)
		}
		return res
	}
	mustSubmit("hr", "stage_refresh_hr", nil)
	res := mustSubmit("hr", "clear", nil)
	cand := data.Value(strings.TrimSuffix(strings.TrimPrefix(res.Updates[0], "+Cleared("), ")"))
	mustSubmit("cfo", "stage_refresh_cfo", nil)
	mustSubmit("cfo", "cfo_ok", map[string]data.Value{"x": cand})
	mustSubmit("ceo", "approve", map[string]data.Value{"x": cand})
	before := c.Len()
	if _, err := c.Submit("hr", "hire", map[string]data.Value{"x": cand}); err == nil {
		t.Fatal("over-budget hire must be rejected by the guard")
	}
	if c.Len() != before {
		t.Fatal("rejected event must not remain in the run")
	}
	// Guards must be installed before the run starts.
	if err := c.Guard("hr", 2); err == nil {
		t.Fatal("late guard installation must fail")
	}
}

// TestSubscriptions: a peer's feed carries exactly the transitions visible
// to it — sue learns of hr's clear behind ω, with her view after it, and
// never of cfo's approval.
func TestSubscriptions(t *testing.T) {
	c := New("Hiring", workload.Hiring())
	res, err := c.Submit("hr", "clear", nil)
	if err != nil {
		t.Fatal(err)
	}
	cand := data.Value(strings.TrimSuffix(strings.TrimPrefix(res.Updates[0], "+Cleared("), ")"))
	if _, err := c.Submit("cfo", "cfo_ok", map[string]data.Value{"x": cand}); err != nil {
		t.Fatal(err)
	}
	if n, err := c.Wait(context.Background(), 0); err != nil || n != 2 {
		t.Fatalf("Wait(0) = (%d, %v), want (2, nil)", n, err)
	}
	ts, n, err := c.Transitions("sue", 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || len(ts) != 1 {
		t.Fatalf("sue's feed = (%+v, %d): want only the clear, of a 2-event run", ts, n)
	}
	if tr := ts[0]; tr.Index != 0 || !tr.Omega || tr.Rule != "" || !strings.Contains(tr.View, "Cleared") {
		t.Fatalf("clear transition = %+v", tr)
	}
	if ts, _, err := c.Transitions("sue", 1); err != nil || len(ts) != 0 {
		t.Fatalf("cfo_ok is invisible to sue, got %+v (%v)", ts, err)
	}
}

// Concurrent submissions serialize into one consistent run.
func TestConcurrentSubmissions(t *testing.T) {
	c := New("Hiring", workload.Hiring())
	var wg sync.WaitGroup
	const n = 24
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Submit("hr", "clear", nil)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
	}
	if c.Len() != n {
		t.Fatalf("run length %d, want %d", c.Len(), n)
	}
	// The exported trace replays.
	tr := c.Trace()
	if _, err := tr.Replay(workload.Hiring()); err != nil {
		t.Fatal(err)
	}
}

func TestHTTPAPI(t *testing.T) {
	c := New("Hiring", workload.Hiring())
	srv := httptest.NewServer(Handler(c))
	defer srv.Close()

	post := func(body string) map[string]any {
		t.Helper()
		resp, err := http.Post(srv.URL+"/submit", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %v", resp.StatusCode, out)
		}
		return out
	}
	res := post(`{"peer":"hr","rule":"clear","bindings":{"x":"sue"}}`)
	if res["index"].(float64) != 0 {
		t.Fatalf("submit result %v", res)
	}
	post(`{"peer":"cfo","rule":"cfo_ok","bindings":{"x":"sue"}}`)
	post(`{"peer":"ceo","rule":"approve","bindings":{"x":"sue"}}`)
	post(`{"peer":"hr","rule":"hire","bindings":{"x":"sue"}}`)

	get := func(path string) map[string]any {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	if v := get("/view?peer=sue"); !strings.Contains(v["view"].(string), "Hire") {
		t.Fatalf("view=%v", v)
	}
	if ex := get("/explain?peer=sue"); !strings.Contains(ex["text"].(string), "because") {
		t.Fatalf("explain=%v", ex)
	}
	if sc := get("/scenario?peer=sue"); len(sc["events"].([]any)) != 4 {
		t.Fatalf("scenario=%v", sc)
	}
	tr := get("/transitions?peer=sue&from=0")
	if len(tr["transitions"].([]any)) != 2 {
		t.Fatalf("transitions=%v", tr)
	}
	// Errors surface with non-200 status.
	resp, err := http.Post(srv.URL+"/submit", "application/json",
		bytes.NewBufferString(`{"peer":"sue","rule":"clear"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("foreign-rule submit: status %d", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/view?peer=nobody")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown peer: status %d", resp.StatusCode)
	}
	// Trace round-trip through the API.
	resp, err = http.Get(srv.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	gotTrace, err := trace.Read(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotTrace.Events) != 4 {
		t.Fatalf("trace has %d events", len(gotTrace.Events))
	}
	if _, err := gotTrace.Replay(workload.Hiring()); err != nil {
		t.Fatal(err)
	}
}
