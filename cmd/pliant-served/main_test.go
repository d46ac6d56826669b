package main

import (
	"net/http"
	"net/http/httptest"
	"testing"

	pliant "github.com/approx-sched/pliant"
)

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

// The API handler must never serve profiles, whether or not -pprof is set:
// they live only on the separate pprof listener.
func TestAPIHandlerServesNoProfiles(t *testing.T) {
	srv := pliant.NewServeServer(pliant.ServeOptions{Version: "test"})
	defer srv.Drain()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/heap", "/debug/pprof/profile"} {
		if rec := get(t, srv, path); rec.Code != http.StatusNotFound {
			t.Fatalf("API handler answered %s with %d, want 404", path, rec.Code)
		}
	}
}

// The pprof mux serves the heap profile and nothing of the API.
func TestPprofMuxServesHeapOnly(t *testing.T) {
	mux := pprofMux()
	rec := get(t, mux, "/debug/pprof/heap")
	if rec.Code != http.StatusOK || rec.Body.Len() == 0 {
		t.Fatalf("heap profile: status %d, %d bytes", rec.Code, rec.Body.Len())
	}
	for _, path := range []string{"/healthz", "/metrics", "/v1/sessions"} {
		if rec := get(t, mux, path); rec.Code != http.StatusNotFound {
			t.Fatalf("pprof mux answered %s with %d, want 404", path, rec.Code)
		}
	}
}
