package wal

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"collabwf/internal/obs"
)

// counterValue sums a family's series values (a histogram contributes its
// observation count); ok reports whether the family exists.
func counterValue(reg *obs.Registry, name string) (float64, bool) {
	for _, fam := range reg.Gather() {
		if fam.Name != name {
			continue
		}
		total := 0.0
		for _, s := range fam.Series {
			total += s.Value
			if s.Hist != nil {
				total += float64(s.Hist.Count)
			}
		}
		return total, true
	}
	return 0, false
}

func TestMetricsRecordAppendsSyncsAndSnapshots(t *testing.T) {
	reg := obs.NewRegistry()
	dir := t.TempDir()
	l, err := Open(dir, Options{Metrics: reg}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := appendDurable(l, rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	for name, want := range map[string]float64{
		"wf_wal_records_appended_total": 3,
		"wf_wal_append_errors_total":    0,
		"wf_wal_torn_bytes_total":       0,
	} {
		if got, ok := counterValue(reg, name); !ok || got != want {
			t.Errorf("%s = %v (ok=%v), want %v", name, got, ok, want)
		}
	}
	// SyncAlways fsyncs once per append; Close may add one more.
	if got, ok := counterValue(reg, "wf_wal_fsync_total"); !ok || got < 3 {
		t.Errorf("wf_wal_fsync_total = %v (ok=%v), want >= 3", got, ok)
	}
	// The log is the run's only record: no snapshot family exists and no
	// snapshot file is written.
	for _, fam := range reg.Gather() {
		if strings.Contains(fam.Name, "snapshot") {
			t.Errorf("snapshot family %s registered", fam.Name)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotName)); !os.IsNotExist(err) {
		t.Errorf("stat %s = %v, want not-exist", snapshotName, err)
	}

	// Reopen on a fresh registry: every record is replayed from the log and
	// recovery telemetry reflects a clean open.
	reg2 := obs.NewRegistry()
	l2, got, err := openRecovered(dir, Options{Metrics: reg2})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if tail := got.entries; len(tail) != 3 {
		t.Errorf("reopened log replays %d records, want 3", len(tail))
	}
	if got, ok := counterValue(reg2, "wf_wal_replayed_records"); !ok || got != 3 {
		t.Errorf("wf_wal_replayed_records = %v (ok=%v), want 3", got, ok)
	}
	if got, ok := counterValue(reg2, "wf_wal_open_seconds"); !ok || got < 0 {
		t.Errorf("wf_wal_open_seconds = %v (ok=%v)", got, ok)
	}
}

func TestMetricsRecordFailpointsAndTornTail(t *testing.T) {
	reg := obs.NewRegistry()
	dir := t.TempDir()
	fp := NewFailpoints()
	fp.TornWrite(2, 4)
	l, err := Open(dir, Options{Metrics: reg, Failpoints: fp}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := appendDurable(l, rec(0)); err != nil {
		t.Fatal(err)
	}
	if err := appendDurable(l, rec(1)); err != nil {
		t.Fatal(err)
	}
	if err := appendDurable(l, rec(2)); err == nil {
		t.Fatal("expected the injected partial write to fail")
	}
	l.Close()

	if got, _ := counterValue(reg, "wf_wal_failpoint_trips_total"); got != 1 {
		t.Errorf("wf_wal_failpoint_trips_total = %v, want 1", got)
	}
	if got, _ := counterValue(reg, "wf_wal_append_errors_total"); got != 1 {
		t.Errorf("wf_wal_append_errors_total = %v, want 1", got)
	}
	if got, _ := counterValue(reg, "wf_wal_records_appended_total"); got != 2 {
		t.Errorf("wf_wal_records_appended_total = %v, want 2", got)
	}
}
