package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// Verdicts of one (workload, metric) pair. A gated metric is judged
// against its bound; an ungated one only by whether every run of one side
// beats every run of the other.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictOverlap    = "overlap"
)

// readRecords loads a -json file (one record per line), keeping the
// end-to-end runs.
func readRecords(path string) ([]*record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []*record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for sc.Scan() {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Trace == 0 {
			out = append(out, &rec)
		}
	}
	return out, sc.Err()
}

// pairVerdict judges metric d between a baseline and a change: a median
// worse by more than the bound regresses, unless either side's own spread
// (interquartile range over median) exceeds the bound, which leaves the
// pair unresolved — except when every change run beats every baseline run.
// setup_s has no spread check and an absolute floor under its median.
func pairVerdict(d metricDef, a, b []float64) (delta float64, verdict string) {
	a1, am, a3 := quartiles(a)
	b1, bm, b3 := quartiles(b)
	base := am
	if d.Name == setupMetric {
		base = max(am, setupFloorS)
	}
	delta = ratio(bm-am, base)
	worse := delta
	if d.Better == "higher" {
		worse = -delta
	}
	if d.Name != setupMetric && (ratio(a3-a1, am) > d.Bound || ratio(b3-b1, bm) > d.Bound) {
		if allBetter(d, a, b) {
			return delta, verdictOK
		}
		return delta, verdictUnresolved
	}
	if worse > d.Bound {
		return delta, verdictRegressed
	}
	return delta, verdictOK
}

func allBetter(d metricDef, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if d.Better == "higher" && y <= x || d.Better != "higher" && y >= x {
				return false
			}
		}
	}
	return true
}

// ungatedVerdict says whether every change run beats every baseline run of
// a detail metric (rates are better higher, everything else lower).
func ungatedVerdict(name string, a, b []float64) string {
	d := metricDef{Name: name, Better: "lower"}
	if strings.HasSuffix(name, "_per_s") {
		d.Better = "higher"
	}
	switch {
	case allBetter(d, a, b):
		return verdictBetter
	case allBetter(d, b, a):
		return verdictWorse
	}
	return verdictOverlap
}

// runCompare prints, per workload and end-to-end metric, each side's
// median and quartiles, the change's delta against the bound and a
// verdict, then the detail metrics (ungated), then one summary row per
// workload over the gated metrics. It exits 1 on a regression.
func runCompare(w io.Writer, args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: wfload -compare baseline.json change.json")
		return 2
	}
	sides := make([]map[string][]*record, 2)
	for i, path := range args {
		recs, err := readRecords(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wfload:", err)
			return 2
		}
		sides[i] = map[string][]*record{}
		for _, r := range recs {
			sides[i][r.Workload] = append(sides[i][r.Workload], r)
		}
	}
	var names []string
	for n := range sides[0] {
		if len(sides[1][n]) > 0 {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	regressed := false
	fmt.Fprintf(w, "%-13s %-18s %30s %30s %8s %6s  %s\n", "workload", "metric", "baseline median [q1, q3]", "change median [q1, q3]", "delta", "bound", "verdict")
	for _, n := range names {
		summary := verdictOK
		for _, d := range endToEnd {
			a, b := values(sides[0][n], d.Name), values(sides[1][n], d.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			delta, v := pairVerdict(d, a, b)
			fmt.Fprintf(w, "%-13s %-18s %30s %30s %+7.1f%% %5.0f%%  %s\n", n, d.Name, spread(a), spread(b), 100*delta, 100*d.Bound, v)
			if v == verdictRegressed {
				summary, regressed = v, true
			} else if v == verdictUnresolved && summary == verdictOK {
				summary = v
			}
		}
		for _, name := range detailNames(sides[0][n]) {
			a, b := values(sides[0][n], name), values(sides[1][n], name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			am, bm := median(a), median(b)
			fmt.Fprintf(w, "%-13s %-18s %30s %30s %+7.1f%% %6s  %s\n", n, name, spread(a), spread(b), 100*ratio(bm-am, am), "-", ungatedVerdict(name, a, b))
		}
		fmt.Fprintf(w, "%-13s %-18s runs %d vs %d: %s\n", n, "(gated)", len(sides[0][n]), len(sides[1][n]), summary)
	}
	if regressed {
		return 1
	}
	return 0
}

// values are the recorded values of a gated or detail metric.
func values(recs []*record, name string) []float64 {
	var out []float64
	for _, r := range recs {
		m, ok := r.Metrics[name]
		if !ok {
			m, ok = r.Detail[name]
		}
		if ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// detailNames are the detail metrics of recs, sorted.
func detailNames(recs []*record) []string {
	seen := map[string]bool{}
	for _, r := range recs {
		for n := range r.Detail {
			seen[n] = true
		}
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func spread(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", q2, q1, q3)
}
