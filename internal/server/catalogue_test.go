package server

import (
	"context"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"

	"collabwf/internal/declog"
	"collabwf/internal/obs"
	"collabwf/internal/prof"
)

// readmeFamilies returns the metric families README's catalogue table
// names. A cell lists one or more backquoted names; a name may carry a
// {label} suffix, and a name starting with "_" is shorthand for the
// previous full name's "wf_<subsystem>" prefix plus that suffix
// (`wf_wal_fsync_total` / `_fsync_errors_total`).
func readmeFamilies(t *testing.T) map[string]bool {
	t.Helper()
	src, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(src), "**Metric catalogue**")
	if !ok {
		t.Fatal("README.md has no metric catalogue")
	}
	name := regexp.MustCompile("`(wf_[a-z0-9_]+|_[a-z0-9_]+)(\\{[^}]*\\})?`")
	out := make(map[string]bool)
	for _, line := range strings.Split(table, "\n")[1:] {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "|") {
			if len(out) > 0 {
				break // the table has ended
			}
			continue
		}
		cell := strings.Split(line, "|")[1]
		prefix := ""
		for _, m := range name.FindAllStringSubmatch(cell, -1) {
			n := m[1]
			if strings.HasPrefix(n, "_") {
				if prefix == "" {
					t.Fatalf("README catalogue: %s has no full name before it in %q", n, cell)
				}
				n = prefix + n
			} else if i := strings.Index(n[len("wf_"):], "_"); i >= 0 {
				prefix = n[:len("wf_")+i]
			}
			out[n] = true
		}
	}
	if len(out) == 0 {
		t.Fatal("README catalogue lists no family")
	}
	return out
}

// TestMetricCatalogueCoversRegistry wires the stack wfserve runs — a
// Manager over a data dir with a registry, the runtime gauges, the build
// info, a decision log and an instrumented profiler — and requires every
// family it registers to appear in README's metric catalogue.
func TestMetricCatalogueCoversRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	obs.RegisterRuntimeMetrics(reg)
	obs.RegisterBuildInfo(reg)
	dl, err := declog.New(declog.Config{Sink: declog.NewWriterSink(io.Discard, "discard"), Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dl.Close(context.Background()) })
	profiler := prof.New()
	profiler.Instrument(reg)
	m := newTestManager(t, ManagerConfig{
		DataDir:    t.TempDir(),
		Durability: DurabilityConfig{DecisionLog: dl, Profiler: profiler},
		Registry:   reg,
	})
	_ = m.Handler()

	documented := readmeFamilies(t)
	for _, f := range reg.Gather() {
		if !documented[f.Name] {
			t.Errorf("family %s (%s) is registered but missing from README's metric catalogue", f.Name, f.Type)
		}
	}
}
