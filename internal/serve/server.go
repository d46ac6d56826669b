package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"github.com/approx-sched/pliant/internal/app"
	"github.com/approx-sched/pliant/internal/export"
	"github.com/approx-sched/pliant/internal/obs"
)

// Options tunes a Server.
type Options struct {
	// MaxSessions bounds concurrently live (unfinalized) sessions; session
	// creation past the bound answers 429. 0 means DefaultMaxSessions.
	MaxSessions int

	// Version is the string /version reports (build info; optional).
	Version string
}

// DefaultMaxSessions bounds live sessions when Options doesn't.
const DefaultMaxSessions = 16

// serverMetrics is the daemon-level instrument set behind GET /metrics,
// written with obs.WriteMetricsProm. The obs.Registry is not thread-safe, so
// every touch goes through the mutex here — session pumps and HTTP handlers
// both report through these methods.
type serverMetrics struct {
	mu  sync.Mutex
	reg *obs.Registry

	sessionsCreated  *obs.Counter
	sessionsFinished *obs.Counter
	sessionsActive   *obs.Gauge
	jobsAccepted     *obs.Counter
	jobsRejected     *obs.Counter
	windows          *obs.Counter
}

func newServerMetrics() *serverMetrics {
	reg := obs.NewRegistry()
	return &serverMetrics{
		reg:              reg,
		sessionsCreated:  reg.Counter("pliant_serve_sessions_created_total", "Sessions created over the daemon's lifetime."),
		sessionsFinished: reg.Counter("pliant_serve_sessions_finished_total", "Sessions finalized (done, stopped, or failed)."),
		sessionsActive:   reg.Gauge("pliant_serve_sessions_active", "Sessions currently running."),
		jobsAccepted:     reg.Counter("pliant_serve_jobs_accepted_total", "Job submissions accepted into ingest queues."),
		jobsRejected:     reg.Counter("pliant_serve_jobs_rejected_total", "Job submissions bounced with 429 under backpressure."),
		windows:          reg.Counter("pliant_serve_windows_total", "Scheduling windows advanced across all sessions."),
	}
}

func (m *serverMetrics) onSessionCreated() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sessionsCreated.Inc()
	m.sessionsActive.Set(m.sessionsCreated.Value() - m.sessionsFinished.Value())
}

func (m *serverMetrics) onSessionFinished() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sessionsFinished.Inc()
	m.sessionsActive.Set(m.sessionsCreated.Value() - m.sessionsFinished.Value())
}

func (m *serverMetrics) onAccepted(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.jobsAccepted.Add(float64(n))
}

func (m *serverMetrics) onRejected(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.jobsRejected.Add(float64(n))
}

func (m *serverMetrics) onWindow() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.windows.Inc()
}

func (m *serverMetrics) writeProm(w io.Writer) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return obs.WriteMetricsProm(w, m.reg)
}

// Server is the shadow-scheduler daemon: a session manager plus the HTTP API
// over it. It implements http.Handler; cmd/pliant-served mounts it directly.
//
// Routes (all JSON unless noted):
//
//	POST   /v1/sessions                  create a session from a Spec body
//	GET    /v1/sessions                  list session statuses
//	GET    /v1/sessions/{id}             one session's status
//	DELETE /v1/sessions/{id}             stop (finalize truncated) a session
//	POST   /v1/sessions/{id}/jobs        submit {"jobs":[names]} (≤ 1 MiB; 429 when full)
//	GET    /v1/sessions/{id}/events      Server-Sent Events stream
//	GET    /v1/sessions/{id}/verdicts    per-window shadow verdicts
//	GET    /v1/sessions/{id}/result      finalized result JSON (?policy=)
//	GET    /v1/sessions/{id}/result.csv  finalized trace CSV (?policy=)
//	GET    /v1/sessions/{id}/metrics     per-session Prometheus metrics (?policy=)
//	GET    /metrics                      daemon Prometheus metrics
//	GET    /healthz                      liveness ("ok")
//	GET    /version                      build identity
//
// Paths are parsed manually (no 1.22 mux patterns) to keep the module on its
// declared go 1.21.
type Server struct {
	opts    Options
	metrics *serverMetrics

	mu       sync.Mutex
	sessions map[string]*Session
	order    []string
	nextID   int
	draining bool
	// pending counts creates that passed the MaxSessions check and are
	// still building their session outside the lock; they hold a slot.
	pending int
}

// NewServer returns an empty session manager.
func NewServer(opts Options) *Server {
	if opts.MaxSessions <= 0 {
		opts.MaxSessions = DefaultMaxSessions
	}
	return &Server{
		opts:     opts,
		metrics:  newServerMetrics(),
		sessions: make(map[string]*Session),
	}
}

// CreateSession resolves a spec and starts its session — the library form of
// POST /v1/sessions (tests and examples drive it directly).
func (s *Server) CreateSession(sp Spec) (*Session, error) {
	res, err := sp.Resolve()
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, fmt.Errorf("serve: draining, not accepting sessions")
	}
	live := s.pending
	for _, sess := range s.sessions {
		if !sess.Done() {
			live++
		}
	}
	if live >= s.opts.MaxSessions {
		s.mu.Unlock()
		return nil, errTooManySessions
	}
	s.pending++
	s.nextID++
	id := fmt.Sprintf("s%d", s.nextID)
	s.mu.Unlock()

	sess, err := NewSession(id, res, s.metrics)
	s.mu.Lock()
	s.pending--
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	s.metrics.onSessionCreated()
	s.sessions[id] = sess
	s.order = append(s.order, id)
	s.mu.Unlock()
	return sess, nil
}

var errTooManySessions = fmt.Errorf("serve: session limit reached")

// Session returns a session by ID.
func (s *Server) Session(id string) (*Session, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	return sess, ok
}

// Sessions returns every session in creation order.
func (s *Server) Sessions() []*Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Session, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.sessions[id])
	}
	return out
}

// Drain is the graceful-shutdown path: stop accepting new sessions, ask
// every running session to finalize (open windows finish first, queued
// submissions are injected, exports become available), and wait for all
// pumps to exit. Safe to call more than once.
func (s *Server) Drain() {
	s.mu.Lock()
	s.draining = true
	sessions := make([]*Session, 0, len(s.order))
	for _, id := range s.order {
		sessions = append(sessions, s.sessions[id])
	}
	s.mu.Unlock()
	for _, sess := range sessions {
		sess.Stop()
	}
	for _, sess := range sessions {
		sess.Wait()
	}
}

// ServeHTTP routes the API.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Path
	switch {
	case path == "/healthz":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	case path == "/version":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, s.opts.Version)
	case path == "/metrics":
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := s.metrics.writeProm(w); err != nil {
			httpError(w, http.StatusInternalServerError, err.Error())
		}
	case path == "/v1/sessions":
		switch r.Method {
		case http.MethodPost:
			s.handleCreate(w, r)
		case http.MethodGet:
			s.handleList(w)
		default:
			httpError(w, http.StatusMethodNotAllowed, "use GET or POST")
		}
	case strings.HasPrefix(path, "/v1/sessions/"):
		s.handleSession(w, r, strings.TrimPrefix(path, "/v1/sessions/"))
	default:
		httpError(w, http.StatusNotFound, "no such route")
	}
}

// handleSession dispatches /v1/sessions/{id}[/{sub}].
func (s *Server) handleSession(w http.ResponseWriter, r *http.Request, rest string) {
	id, sub := rest, ""
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		id, sub = rest[:i], rest[i+1:]
	}
	sess, ok := s.Session(id)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Sprintf("no session %q", id))
		return
	}
	switch {
	case sub == "" && r.Method == http.MethodGet:
		writeJSON(w, http.StatusOK, sess.Status())
	case sub == "" && r.Method == http.MethodDelete:
		sess.Stop()
		sess.Wait()
		writeJSON(w, http.StatusOK, sess.Status())
	case sub == "jobs" && r.Method == http.MethodPost:
		s.handleSubmit(w, r, sess)
	case sub == "events" && r.Method == http.MethodGet:
		s.handleEvents(w, r, sess)
	case sub == "verdicts" && r.Method == http.MethodGet:
		writeJSON(w, http.StatusOK, sess.Verdicts())
	case sub == "result" && r.Method == http.MethodGet:
		res, err := sess.ResultFor(r.URL.Query().Get("policy"))
		if err != nil {
			httpError(w, http.StatusConflict, err.Error())
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := export.WriteSchedResultJSON(w, res); err != nil {
			httpError(w, http.StatusInternalServerError, err.Error())
		}
	case sub == "result.csv" && r.Method == http.MethodGet:
		res, err := sess.ResultFor(r.URL.Query().Get("policy"))
		if err != nil {
			httpError(w, http.StatusConflict, err.Error())
			return
		}
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		if err := export.WriteSchedTraceCSV(w, res); err != nil {
			httpError(w, http.StatusInternalServerError, err.Error())
		}
	case sub == "metrics" && r.Method == http.MethodGet:
		ob, err := sess.Observer(r.URL.Query().Get("policy"))
		if err != nil {
			httpError(w, http.StatusNotFound, err.Error())
			return
		}
		// The registry is written by the pump between windows; a live read
		// can tear across a boundary, so scrape-grade reads happen after the
		// session finalizes (the pump is gone then). Documented best-effort.
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := obs.WriteMetricsProm(w, ob.Metrics); err != nil {
			httpError(w, http.StatusInternalServerError, err.Error())
		}
	default:
		httpError(w, http.StatusNotFound, fmt.Sprintf("no route %q", sub))
	}
}

// maxSpecBytes bounds a POST /v1/sessions body. The largest part a Spec can
// carry is an inline TraceSpec.CSV upload: a Google task-event export costs
// about 150 bytes per job once JSON-escaped, so 32 MiB takes a 200k-job
// trace, twice the 100k-job trace the storm benchmark parses. Past that the
// decoder would buffer whatever a client sends.
const maxSpecBytes = 32 << 20

// handleCreate builds a session from the Spec body (400 on a bad spec, 413
// past maxSpecBytes).
func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var sp Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		httpError(w, decodeStatus(err), fmt.Sprintf("bad spec: %v", err))
		return
	}
	sess, err := s.CreateSession(sp)
	if err != nil {
		status := http.StatusBadRequest
		if err == errTooManySessions {
			status = http.StatusTooManyRequests
			w.Header().Set("Retry-After", "1")
		}
		httpError(w, status, err.Error())
		return
	}
	writeJSON(w, http.StatusCreated, sess.Status())
}

// decodeStatus maps a request-body decode error to its status: 413 when the
// body ran past its MaxBytesReader bound, 400 for anything else.
func decodeStatus(err error) int {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// handleList renders every session's status in creation order.
func (s *Server) handleList(w http.ResponseWriter) {
	statuses := []SessionStatus{}
	for _, sess := range s.Sessions() {
		statuses = append(statuses, sess.Status())
	}
	writeJSON(w, http.StatusOK, statuses)
}

// submitBody is the POST .../jobs payload.
type submitBody struct {
	Jobs []string `json:"jobs"`
}

// maxSubmitBytes bounds a POST .../jobs body. A batch of catalog names is a
// few kilobytes; the bound keeps one request from buffering without limit.
const maxSubmitBytes = 1 << 20

// handleSubmit validates the batch against the catalog (400; 413 past
// maxSubmitBytes), then offers it to the ingest queue: 202 accepted, 429 +
// Retry-After when the queue is full, 409 when the session stopped
// accepting.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request, sess *Session) {
	var body submitBody
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&body); err != nil {
		httpError(w, decodeStatus(err), fmt.Sprintf("bad body: %v", err))
		return
	}
	if len(body.Jobs) == 0 {
		httpError(w, http.StatusBadRequest, "submit at least one job name")
		return
	}
	for _, name := range body.Jobs {
		if _, err := app.ByName(name); err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	ok, err := sess.Submit(body.Jobs)
	if err != nil {
		httpError(w, http.StatusConflict, err.Error())
		return
	}
	if !ok {
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "ingest queue full")
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]interface{}{
		"accepted": len(body.Jobs),
		"session":  sess.ID,
	})
}

// handleEvents streams the session's SSE feed until the session ends or the
// client disconnects.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request, sess *Session) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	ch, done := sess.Events()
	if done {
		// Session already finalized: emit a terminal frame and finish.
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprintf(w, "event: done\ndata: {\"session\":%q}\n\n", sess.ID)
		return
	}
	defer sess.EventsUnsubscribe(ch)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	ctx := r.Context()
	for {
		select {
		case frame, open := <-ch:
			if !open {
				return
			}
			if _, err := w.Write(frame); err != nil {
				return
			}
			flusher.Flush()
		case <-ctx.Done():
			return
		}
	}
}

// ListenAndServe runs the daemon on addr until the returned http.Server is
// shut down. Exposed for cmd/pliant-served; tests use httptest with the
// Server as handler.
func (s *Server) ListenAndServe(addr string) (*http.Server, error) {
	hs := &http.Server{Addr: addr, Handler: s, ReadHeaderTimeout: 10 * time.Second}
	return hs, hs.ListenAndServe()
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
