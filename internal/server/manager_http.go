package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
)

// Handler exposes the fleet as one HTTP API:
//
//	POST   /runs               {"id": "r1"}   create a run
//	GET    /runs               list the live fleet
//	DELETE /runs/{id}          archive a run (final snapshot + WAL close)
//	ANY    /runs/{id}/...      the full single-run API, routed to the shard
//	ANY    /...                legacy single-run paths, aliased to the
//	                           default run
//	GET    /statusz            the default run's page plus the fleet block
//
// Shard routing is longest-prefix: /runs/{id}/submit strips to /submit and
// runs through the shard's own handler, so every middleware, metric label
// and trace a single-run server would produce appears unchanged — just
// attributed to the run.
func (m *Manager) Handler() http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /runs", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			ID string `json:"id"`
		}
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4096))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
			return
		}
		if err := m.CreateRun(req.ID); err != nil {
			status := http.StatusBadRequest
			if strings.Contains(err.Error(), "already exists") {
				status = http.StatusConflict
			}
			httpError(w, status, err)
			return
		}
		w.WriteHeader(http.StatusCreated)
		_ = json.NewEncoder(w).Encode(map[string]any{"id": req.ID, "created": true})
	})

	mux.HandleFunc("GET /runs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, m.RunsStatus())
	})

	mux.HandleFunc("DELETE /runs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if err := m.ArchiveRun(id); err != nil {
			status := http.StatusBadRequest
			if strings.Contains(err.Error(), "unknown run") {
				status = http.StatusNotFound
			}
			httpError(w, status, err)
			return
		}
		writeJSON(w, map[string]any{"id": id, "archived": true})
	})

	// Shard dispatch: /runs/{id}/... → the shard's own handler with the
	// prefix stripped, so its routes ("/submit", "/view", …) match as if it
	// were a single-run server.
	mux.HandleFunc("/runs/{id}/{rest...}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		s, ok := m.get(id)
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Errorf("server: unknown run %q", id))
			return
		}
		http.StripPrefix("/runs/"+id, s.h).ServeHTTP(w, r)
	})

	// Fleet statusz: the default run's page plus the runs block. Registered
	// explicitly so it wins over the "/" legacy alias below (most-specific
	// pattern), replacing the default shard's runs-blind page.
	if m.cfg.Registry != nil {
		mux.HandleFunc("/statusz", func(w http.ResponseWriter, r *http.Request) {
			st := statuszFor(m.Default(), m.start)
			st.Runs = m.RunsStatus()
			writeJSON(w, st)
		})
	}

	// Legacy single-run paths alias to the default run: a pre-fleet client
	// (or curl muscle memory) keeps working against /submit, /view, ….
	def, _ := m.get(DefaultRun)
	mux.Handle("/", def.h)

	return Recovery(mux)
}
