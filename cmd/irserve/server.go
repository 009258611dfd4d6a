package main

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"

	"bufir"
)

// searchResponse is the /search answer. ElapsedMicros is wall time in
// the handler (evaluation plus merge), the one non-deterministic
// field.
type searchResponse struct {
	Query         string `json:"query"`
	User          int    `json:"user"`
	Shards        int    `json:"shards"`
	ElapsedMicros int64  `json:"elapsed_us"`
	PagesRead     int    `json:"pages_read"`
	Degraded      bool   `json:"degraded,omitempty"`
	Partial       bool   `json:"partial,omitempty"`
	Results       []hit  `json:"results"`
}

// hit is one ranked document.
type hit struct {
	Rank  int     `json:"rank"`
	Doc   int     `json:"doc"`
	Name  string  `json:"name"`
	Score float64 `json:"score"`
}

// statsResponse is the /stats answer: the deployment's own counters
// plus each partition engine's, and the current index generation
// (the maximum across shards for a sharded deployment).
type statsResponse struct {
	Epoch   uint64              `json:"epoch"`
	Serving bufir.EngineStats   `json:"serving"`
	Shards  []bufir.EngineStats `json:"shards"`
}

// maxIngestBody bounds a POST /ingest body; a larger one is refused
// with 413 before it is decoded in full.
const maxIngestBody = 1 << 20

// ingestRequest is the POST /ingest body.
type ingestRequest struct {
	Name string `json:"name"`
	Text string `json:"text"`
}

// ingestResponse is the POST /ingest answer. Doc is the per-shard
// DocID the document was assigned (shards keep independent DocID
// spaces; Doc identifies the document only together with its owning
// shard).
type ingestResponse struct {
	Doc   int    `json:"doc"`
	Epoch uint64 `json:"epoch"`
}

// newMux builds the serving mux over an open deployment. Factored out
// of main so tests drive it through httptest.
func newMux(svc *bufir.Service) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /search", func(w http.ResponseWriter, r *http.Request) {
		handleSearch(svc, w, r)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "shards": svc.NumShards(), "epoch": svc.Epoch()})
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, statsResponse{Epoch: svc.Epoch(), Serving: svc.Stats(), Shards: svc.ShardStats()})
	})
	mux.HandleFunc("POST /ingest", func(w http.ResponseWriter, r *http.Request) {
		handleIngest(svc, w, r)
	})
	mux.HandleFunc("POST /merge", func(w http.ResponseWriter, r *http.Request) {
		if err := svc.MergeContext(r.Context()); err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"epoch": svc.Epoch()})
	})
	return mux
}

// handleIngest adds one document to the deployment (requires -live).
// Queries admitted after the response see the document.
func handleIngest(svc *bufir.Service, w http.ResponseWriter, r *http.Request) {
	var req ingestRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxIngestBody)).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "bad JSON body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if req.Text == "" {
		http.Error(w, "missing text field", http.StatusBadRequest)
		return
	}
	doc, err := svc.IngestContext(r.Context(), bufir.Document{Name: req.Name, Text: req.Text})
	if err != nil {
		// The one expected failure is a read-only deployment (irserve
		// started without -live).
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	writeJSON(w, http.StatusOK, ingestResponse{Doc: int(doc), Epoch: svc.Epoch()})
}

func handleSearch(svc *bufir.Service, w http.ResponseWriter, r *http.Request) {
	text := r.URL.Query().Get("q")
	if text == "" {
		http.Error(w, "missing q parameter", http.StatusBadRequest)
		return
	}
	user, err := intParam(r, "user", 0)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	k, err := intParam(r, "k", 0)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	q, err := svc.Query(text)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	start := time.Now()
	res, err := svc.SearchContext(r.Context(), user, q)
	if err != nil {
		switch {
		case errors.Is(err, bufir.ErrQueueFull):
			http.Error(w, "overloaded: request shed", http.StatusServiceUnavailable)
		case errors.Is(err, context.DeadlineExceeded):
			http.Error(w, "deadline exceeded", http.StatusGatewayTimeout)
		case errors.Is(err, context.Canceled):
			// The client went away; nothing useful to write.
		default:
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}

	top := res.Top
	if k > 0 && k < len(top) {
		top = top[:k]
	}
	resp := searchResponse{
		Query:         text,
		User:          user,
		Shards:        svc.NumShards(),
		ElapsedMicros: time.Since(start).Microseconds(),
		PagesRead:     res.PagesRead,
		Degraded:      res.Degraded,
		Partial:       res.Partial,
		Results:       make([]hit, len(top)),
	}
	ix := svc.Index()
	for i, d := range top {
		resp.Results[i] = hit{Rank: i + 1, Doc: int(d.Doc), Name: ix.DocName(d.Doc), Score: d.Score}
	}
	writeJSON(w, http.StatusOK, resp)
}

func intParam(r *http.Request, name string, def int) (int, error) {
	s := r.URL.Query().Get(name)
	if s == "" {
		return def, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil || v < 0 {
		return 0, errors.New("bad " + name + " parameter")
	}
	return v, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
