package declog

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"collabwf/internal/obs"
)

// collectSink captures exported batches for assertions.
type collectSink struct {
	mu      sync.Mutex
	batches [][]Decision
	closed  bool
	fail    bool
}

func (s *collectSink) Export(ctx context.Context, batch []Decision) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fail {
		return context.DeadlineExceeded
	}
	cp := make([]Decision, len(batch))
	copy(cp, batch)
	s.batches = append(s.batches, cp)
	return nil
}

func (s *collectSink) Describe() string { return "collect" }

func (s *collectSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}

func (s *collectSink) records() []Decision {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Decision
	for _, b := range s.batches {
		out = append(out, b...)
	}
	return out
}

func TestLoggerBatchesAndDrains(t *testing.T) {
	sink := &collectSink{}
	l, err := New(Config{Sink: sink, BatchSize: 4, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		l.Emit(Decision{Kind: KindSubmit, Decision: Accepted, Index: i})
	}
	// 10 records with batch 4: two full batches export on wake; the ticker
	// never fires (1h) so the remaining 2 wait for Close's drain.
	deadline := time.Now().Add(2 * time.Second)
	for len(sink.records()) < 8 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := l.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	recs := sink.records()
	if len(recs) != 10 {
		t.Fatalf("got %d records, want 10", len(recs))
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d, want %d", i, r.Seq, i+1)
		}
		if r.Index != i {
			t.Fatalf("records reordered: %d at position %d", r.Index, i)
		}
		if r.Time.IsZero() {
			t.Fatalf("record %d missing timestamp", i)
		}
	}
	if !sink.closed {
		t.Fatal("Close must close the sink")
	}
	l.Emit(Decision{Kind: KindSubmit}) // must be a no-op, not a panic
	if st := l.Status(); st.Emitted != 10 || st.Dropped != 0 {
		t.Fatalf("status=%+v", st)
	}
}

func TestLoggerFlushInterval(t *testing.T) {
	sink := &collectSink{}
	l, err := New(Config{Sink: sink, BatchSize: 100, FlushInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close(context.Background())
	l.Emit(Decision{Kind: KindExplain, Decision: Served})
	deadline := time.Now().Add(2 * time.Second)
	for len(sink.records()) == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := len(sink.records()); got != 1 {
		t.Fatalf("partial batch not flushed by interval: %d records", got)
	}
}

// gateSink blocks its first Export until released, reporting the batch it
// is holding on entered, so a test can fill the ring behind a stalled
// export deterministically.
type gateSink struct {
	collectSink
	entered chan []Decision
	release chan struct{}
	once    sync.Once
}

func (s *gateSink) Export(ctx context.Context, batch []Decision) error {
	s.once.Do(func() {
		s.entered <- append([]Decision(nil), batch...)
		<-s.release
	})
	return s.collectSink.Export(ctx, batch)
}

func indices(recs []Decision) []int {
	out := make([]int, len(recs))
	for i, r := range recs {
		out[i] = r.Index
	}
	return out
}

func TestLoggerDropsOldestWhenFull(t *testing.T) {
	reg := obs.NewRegistry()
	sink := &gateSink{entered: make(chan []Decision), release: make(chan struct{})}
	l, err := New(Config{Sink: sink, Capacity: 4, BatchSize: 4,
		FlushInterval: time.Hour, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	// Fill the ring exactly: the full batch wakes the flusher, which takes
	// all four records and stalls inside Export.
	for i := 0; i < 4; i++ {
		l.Emit(Decision{Kind: KindSubmit, Index: i})
	}
	if held := indices(<-sink.entered); fmt.Sprint(held) != "[0 1 2 3]" {
		t.Fatalf("stalled export holds indices %v, want [0 1 2 3]", held)
	}
	// With the flusher stalled, six more emits overflow the emptied ring:
	// indices 4 and 5 are dropped, 6–9 kept.
	for i := 4; i < 10; i++ {
		l.Emit(Decision{Kind: KindSubmit, Index: i})
	}
	close(sink.release)
	if err := l.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := indices(sink.records()); fmt.Sprint(got) != "[0 1 2 3 6 7 8 9]" {
		t.Fatalf("exported indices %v, want [0 1 2 3 6 7 8 9]", got)
	}
	st := l.Status()
	if st.Dropped != 2 || st.Emitted != 10 {
		t.Fatalf("status=%+v", st)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"wf_declog_dropped_total 2",
		`wf_declog_emitted_total{kind="submit"} 10`,
		"wf_declog_queue_depth 0",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("metrics missing %q:\n%s", want, buf.String())
		}
	}
}

func TestLoggerCountsFailedExports(t *testing.T) {
	sink := &collectSink{fail: true}
	l, err := New(Config{Sink: sink, BatchSize: 1, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	l.Emit(Decision{Kind: KindSubmit})
	l.Flush(context.Background())
	if err := l.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := l.Status()
	if st.ExportFailures == 0 || st.FailedRecords == 0 || st.LastError == "" {
		t.Fatalf("failure not surfaced: %+v", st)
	}
	if st.Batches != 0 {
		t.Fatalf("failed exports must not count as batches: %+v", st)
	}
}

func TestLoggerNilSafe(t *testing.T) {
	var l *Logger
	l.Emit(Decision{})
	l.Flush(context.Background())
	if err := l.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if l.Status() != nil {
		t.Fatal("nil logger must report nil status")
	}
}

func TestLoggerRequiresSink(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New must reject a missing sink")
	}
}

func TestConcurrentEmit(t *testing.T) {
	sink := &collectSink{}
	l, err := New(Config{Sink: sink, Capacity: 1 << 14, BatchSize: 64, FlushInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	const goroutines, per = 8, 200
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				l.Emit(Decision{Kind: KindSubmit, Decision: Accepted})
			}
		}()
	}
	wg.Wait()
	if err := l.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	recs := sink.records()
	if len(recs) != goroutines*per {
		t.Fatalf("got %d records, want %d", len(recs), goroutines*per)
	}
	seen := make(map[uint64]bool, len(recs))
	for _, r := range recs {
		if seen[r.Seq] {
			t.Fatalf("duplicate seq %d", r.Seq)
		}
		seen[r.Seq] = true
	}
}

func TestDigestStable(t *testing.T) {
	a, b := Digest("report text"), Digest("report text")
	if a != b || len(a) != 16 {
		t.Fatalf("digest unstable or malformed: %q vs %q", a, b)
	}
	if Digest("other") == a {
		t.Fatal("distinct texts must digest differently")
	}
}

func TestDecisionJSONRoundTrip(t *testing.T) {
	in := Decision{Seq: 7, Kind: KindCertify, Decision: Violation, Reason: "bounded",
		Peer: "sue", H: 3, Index: -1, RunLen: 9,
		Search: &SearchStats{Nodes: 42, CacheHits: 5, Workers: 8}}
	var buf bytes.Buffer
	if err := encodeJSONL(&buf, []Decision{in}); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	if !sc.Scan() {
		t.Fatal("no line encoded")
	}
	var out Decision
	if err := json.Unmarshal(sc.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Seq != 7 || out.Reason != "bounded" || out.Search == nil || out.Search.Nodes != 42 {
		t.Fatalf("round trip lost fields: %+v", out)
	}
}
