package bench

import (
	"fmt"
	"time"

	"collabwf/internal/data"
	"collabwf/internal/design"
	"collabwf/internal/prov"
	"collabwf/internal/schema"
	"collabwf/internal/server"
	"collabwf/internal/workload"
)

// E13Provenance — §§4–5: the causal provenance graph is cheap to build and
// its per-event explanations match the faithful fixpoints (validated by
// construction in the prov package tests); here its cost and size scale
// with the run.
func E13Provenance(quick bool) (*Table, error) {
	t := &Table{
		ID:      "E13",
		Title:   "provenance graph construction (relevant chain + noise)",
		Claim:   "§4: direct faithfulness requirements form a causal graph; reachability = explanation",
		Columns: []string{"run len", "edges", "build time", "DOT bytes"},
	}
	sizes := [][2]int{{5, 20}, {5, 100}}
	if quick {
		sizes = [][2]int{{5, 20}}
	}
	for _, sz := range sizes {
		_, r, err := workload.Wide(sz[0], sz[1])
		if err != nil {
			return nil, err
		}
		start := time.Now()
		g := prov.Build(r, "p")
		dur := time.Since(start)
		edges := 0
		for i := 0; i < r.Len(); i++ {
			edges += len(g.Direct(i))
		}
		dot := g.DOT()
		t.AddRow(fmt.Sprintf("%d", r.Len()), fmt.Sprintf("%d", edges), ms(dur), fmt.Sprintf("%d", len(dot)))
		// The relevant chain contributes depth-1 edges; noise contributes
		// none.
		if edges != sz[0]-1 {
			return nil, fmt.Errorf("E13: %d edges, want %d", edges, sz[0]-1)
		}
	}
	t.Notef("noise events add nodes but no edges: the graph isolates the causal core")
	return t, nil
}

// E14Coordinator — conclusion: the master-server architecture sustains
// realistic submission rates, and guarded submission costs a bounded
// multiple of unguarded submission (the guard checks and commits each
// event once per guarded peer; it never replays the run).
func E14Coordinator(quick bool) (*Table, error) {
	t := &Table{
		ID:      "E14",
		Title:   "master-server submission throughput (staged hiring)",
		Claim:   "conclusion: a master server can control transparency and boundedness for chosen peers",
		Columns: []string{"episodes", "events", "unguarded", "guarded", "ratio"},
	}
	episodes := []int{10, 30}
	if quick {
		episodes = []int{5}
	}
	staged, err := design.Staged(workload.Hiring(), "sue")
	if err != nil {
		return nil, err
	}
	for _, k := range episodes {
		script := buildHiringScript(k)
		runOnce := func(guard bool) (time.Duration, int, error) {
			var cfg server.DurabilityConfig
			if guard {
				cfg.Guards = map[string]int{"sue": 3}
			}
			c, err := server.NewDurable("Staged", staged, cfg)
			if err != nil {
				return 0, 0, err
			}
			start := time.Now()
			if err := playOnCoordinator(c, script); err != nil {
				return 0, 0, err
			}
			return time.Since(start), c.Len(), nil
		}
		unguarded, n1, err := runOnce(false)
		if err != nil {
			return nil, err
		}
		guarded, n2, err := runOnce(true)
		if err != nil {
			return nil, err
		}
		if n1 != n2 {
			return nil, fmt.Errorf("E14: runs diverged (%d vs %d)", n1, n2)
		}
		t.AddRow(fmt.Sprintf("%d", k), fmt.Sprintf("%d", n1), ms(unguarded), ms(guarded),
			fmt.Sprintf("%.1fx", float64(guarded)/float64(unguarded)))
	}
	t.Notef("guards are incrementally monitored: the overhead stays a small constant factor")
	return t, nil
}

// peerOfStagedRule maps a staged-hiring rule to its owning peer.
func peerOfStagedRule(rule string) schema.Peer {
	switch rule {
	case "stage_refresh_hr", "clear", "hire":
		return "hr"
	case "stage_refresh_cfo", "cfo_ok":
		return "cfo"
	case "approve":
		return "ceo"
	}
	return schema.Peer(rule)
}

// playOnCoordinator drives the staged-hiring script through a coordinator.
func playOnCoordinator(c *server.Coordinator, steps []scriptStep) error {
	var cand string
	for _, st := range steps {
		bind := map[string]data.Value{}
		for k := range st.bind {
			bind[k] = data.Value(cand)
		}
		peer := peerOfStagedRule(st.rule)
		res, err := c.Submit(peer, st.rule, bind)
		if err != nil {
			return fmt.Errorf("%s: %w", st.rule, err)
		}
		if st.rule == "clear" {
			cand = res.Updates[0][len("+Cleared(") : len(res.Updates[0])-1]
		}
	}
	return nil
}
