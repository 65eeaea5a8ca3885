// Package bench implements the experiment harness of the reproduction. The
// paper (PODS 2018) has no empirical evaluation section — no tables or
// figures — so each experiment here reproduces one of its formal claims as
// a measurement: the hardness gadgets show the expected exponential/
// polynomial separations, the PTIME algorithms show their scaling, the
// decision procedures return the verdicts the theorems predict, and the
// design-methodology constructions are exercised end to end. EXPERIMENTS.md
// documents the mapping claim → experiment → expected shape.
package bench

import (
	"fmt"
	"strings"
)

// Table is one experiment's result.
type Table struct {
	// ID is the experiment identifier (E1..E21).
	ID string
	// Title summarizes the experiment.
	Title string
	// Claim cites the reproduced statement of the paper.
	Claim string
	// Columns and Rows hold the measurements.
	Columns []string
	Rows    [][]string
	// Notes states the expected shape and whether it held.
	Notes []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Notef appends a formatted note.
func (t *Table) Notef(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// gate applies a wall-clock ratio floor. Host load decides such ratios, so
// only full runs (wfbench) without the race detector assert them; quick runs
// — the tier-1 test suite, on whatever machine runs it — report the measured
// ratio against its floor in the notes instead. Exact and structural checks
// do not go through gate: they hold in every mode.
func (t *Table) gate(quick bool, what string, got, floor float64) error {
	if quick || raceDetector {
		verdict := "held"
		if got < floor {
			verdict = "missed"
		}
		t.Notef("%s %.2f vs floor %.2f: %s (asserted only by a full wfbench run without -race)", what, got, floor, verdict)
		return nil
	}
	if got < floor {
		return fmt.Errorf("%s: %s %.2f below its %.2f floor", t.ID, what, got, floor)
	}
	return nil
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	fmt.Fprintf(&b, "claim: %s\n", t.Claim)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Experiment names a table-producing experiment.
type Experiment struct {
	ID  string
	Run func(quick bool) (*Table, error)
}

// All returns the full experiment suite in order.
func All() []Experiment {
	return []Experiment{
		{"E1", E1MinimumScenario},
		{"E2", E2MinimalityCheck},
		{"E3", E3MinimalFaithfulScaling},
		{"E4", E4Semiring},
		{"E5", E5Incremental},
		{"E6", E6Boundedness},
		{"E7", E7Transparency},
		{"E8", E8Synthesis},
		{"E9", E9AcyclicBound},
		{"E10", E10Monitor},
		{"E11", E11Compression},
		{"E12", E12NormalForm},
		{"E13", E13Provenance},
		{"E14", E14Coordinator},
		{"E15", E15ParallelSearch},
		{"E16", E16GroupCommit},
		{"E17", E17ReadPath},
		{"E18", E18DecisionLog},
		{"E19", E19RuleProfiler},
		{"E20", E20Fleet},
		{"E21", E21RunLength},
	}
}
