package serve

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/approx-sched/pliant/internal/obs"
	"github.com/approx-sched/pliant/internal/sched"
)

// SessionState is a session's lifecycle position.
type SessionState string

const (
	// StateRunning: the pump goroutine is advancing windows.
	StateRunning SessionState = "running"
	// StateDone: the run reached its horizon and finalized.
	StateDone SessionState = "done"
	// StateStopped: the session was stopped (DELETE, daemon drain) before
	// its horizon; results are finalized and marked truncated.
	StateStopped SessionState = "stopped"
	// StateFailed: a runner errored; Error carries the message.
	StateFailed SessionState = "failed"
)

// Session is one named run advanced faster-than-real-time on its own
// goroutine: K lockstep sched.Runner engines (one per candidate policy — a
// single engine is a plain session, several a shadow replay), a bounded
// ingest queue feeding all K, an SSE hub, and per-window verdicts. All
// engine access happens on the pump goroutine; handlers touch only the
// mutex-guarded view the pump publishes after each window.
type Session struct {
	ID   string
	Name string

	res      Resolved
	runners  []*sched.Runner
	obsv     []*obs.Observer
	cursor   uint64 // baseline tracer drain cursor for SSE placement events
	metrics  *serverMetrics
	ingest   chan []string
	stopCh   chan struct{}
	stopOnce sync.Once
	doneCh   chan struct{}
	events   *hub
	eventSeq uint64
	finished bool // finish has reported the session; pump goroutine only

	mu       sync.Mutex
	state    SessionState
	failMsg  string
	accepted int
	rejected int
	injected int
	snaps    []sched.Snapshot
	verdicts []WindowVerdict
	results  []sched.Result
}

// NewSession resolves nothing — it takes an already-Resolved spec — builds
// one runner per policy, and starts the pump. The caller owns naming.
func NewSession(id string, res Resolved, metrics *serverMetrics) (*Session, error) {
	s := &Session{
		ID:      id,
		Name:    res.Name,
		res:     res,
		metrics: metrics,
		ingest:  make(chan []string, res.QueueCap),
		stopCh:  make(chan struct{}),
		doneCh:  make(chan struct{}),
		events:  newHub(),
		state:   StateRunning,
	}
	if s.Name == "" {
		s.Name = id
	}
	for _, p := range res.Policies {
		cfg := res.Cfg
		cfg.Policy = p
		cfg.Obs = obs.New(obs.Options{})
		r, err := sched.NewRunner(cfg)
		if err != nil {
			for _, prev := range s.runners {
				prev.Close()
			}
			return nil, err
		}
		s.runners = append(s.runners, r)
		s.obsv = append(s.obsv, cfg.Obs)
	}
	s.snaps = make([]sched.Snapshot, len(s.runners))
	for i, r := range s.runners {
		s.snaps[i] = r.Snapshot()
	}
	go s.pump()
	return s, nil
}

// Policies names the session's candidate policies in engine order (index 0
// is the baseline every diff is taken against).
func (s *Session) Policies() []string {
	names := make([]string, len(s.res.Policies))
	for i, p := range s.res.Policies {
		names[i] = p.Name()
	}
	return names
}

// Submit offers one batch of (pre-validated) job names to the ingest queue.
// The batch is atomic: it is accepted whole or rejected whole, and accepted
// batches are injected into every engine in acceptance order — the queue is
// the ordering guarantee behind the 429 contract. ok=false means the queue
// is full (answer 429 + Retry-After); err means the session no longer
// accepts (answer 409).
func (s *Session) Submit(names []string) (ok bool, err error) {
	if len(names) == 0 {
		return false, fmt.Errorf("serve: empty submission")
	}
	batch := append([]string(nil), names...)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != StateRunning {
		return false, fmt.Errorf("serve: session %s is %s", s.ID, s.state)
	}
	// The send happens under the state lock: once the pump flips the state
	// away from running it drains the queue to empty exactly once, so a
	// batch accepted here is always injected before finalize — accepted
	// submissions are never dropped.
	select {
	case s.ingest <- batch:
		s.accepted += len(batch)
		if s.metrics != nil {
			s.metrics.onAccepted(len(batch))
		}
		return true, nil
	default:
		s.rejected += len(batch)
		if s.metrics != nil {
			s.metrics.onRejected(len(batch))
		}
		return false, nil
	}
}

// Stop asks the pump to finalize early (open window finishes first). It
// returns immediately; Wait observes completion.
func (s *Session) Stop() {
	s.stopOnce.Do(func() { close(s.stopCh) })
}

// Wait blocks until the pump has finalized the session.
func (s *Session) Wait() { <-s.doneCh }

// Done reports (without blocking) whether the session has finalized.
func (s *Session) Done() bool {
	select {
	case <-s.doneCh:
		return true
	default:
		return false
	}
}

// pump is the session goroutine: inject queued submissions, step every
// engine one window in lockstep, publish the window's snapshots/verdict/SSE
// frames, repeat to the horizon (or a stop), then drain and finalize. A
// panic on it (a policy's or an autoscaler's) fails this session alone.
func (s *Session) pump() {
	defer close(s.doneCh)
	defer func() {
		if p := recover(); p != nil {
			s.abort(p)
		}
	}()
	var tick *time.Ticker
	if s.res.PaceMS > 0 {
		//pliant:allow wallclock — pace_ms is opt-in real-time pacing for wall-clock consumers; windows advance identically with or without it
		tick = time.NewTicker(time.Duration(s.res.PaceMS) * time.Millisecond)
		defer tick.Stop()
	}
	stopped := false
	for {
		select {
		case <-s.stopCh:
			stopped = true
		default:
		}
		if stopped {
			break
		}
		if err := s.injectQueued(); err != nil {
			s.finish(err, false)
			return
		}
		more, err := s.stepAll()
		if err != nil {
			s.finish(err, false)
			return
		}
		s.publishWindow()
		if !more {
			break
		}
		if tick != nil {
			select {
			case <-tick.C:
			case <-s.stopCh:
				stopped = true
			}
		} else {
			// Flat-out sessions yield between windows so already-runnable
			// handler goroutines get CPU on small GOMAXPROCS. (Goroutines
			// parked in the netpoller still ride the runtime's sysmon
			// cadence — interactive sessions should set a pace.)
			runtime.Gosched()
		}
	}
	s.finish(nil, stopped)
}

// injectQueued drains the ingest queue without blocking and injects each
// batch into every engine, preserving acceptance order.
func (s *Session) injectQueued() error {
	for {
		select {
		case batch := <-s.ingest:
			for _, r := range s.runners {
				if err := r.Inject(batch...); err != nil {
					return err
				}
			}
			s.mu.Lock()
			s.injected += len(batch)
			s.mu.Unlock()
		default:
			return nil
		}
	}
}

// stepAll advances every engine exactly one window. The engines share
// horizon and epoch, so they agree on more.
func (s *Session) stepAll() (more bool, err error) {
	for _, r := range s.runners {
		m, err := r.StepWindow()
		if err != nil {
			return false, err
		}
		more = m
	}
	if s.metrics != nil {
		s.metrics.onWindow()
	}
	return more, nil
}

// finish flips the session out of running (after which Submit rejects),
// drains the last accepted batches into the engines, finalizes every
// engine, and closes the event stream. Runs on the pump goroutine only.
func (s *Session) finish(err error, stopped bool) {
	s.mu.Lock()
	switch {
	case err != nil:
		s.state = StateFailed
		s.failMsg = err.Error()
	case stopped:
		s.state = StateStopped
	default:
		s.state = StateDone
	}
	s.mu.Unlock()
	if err == nil {
		// Everything accepted before the state flip lands in the arrival
		// ledger (as pending jobs at the final instant), so at drain
		// accepted submissions are exactly the injected ones.
		if ierr := s.injectQueued(); ierr != nil && err == nil {
			err = ierr
			s.mu.Lock()
			s.state = StateFailed
			s.failMsg = ierr.Error()
			s.mu.Unlock()
		}
	}
	results := make([]sched.Result, len(s.runners))
	snaps := make([]sched.Snapshot, len(s.runners))
	for i, r := range s.runners {
		snaps[i] = r.Snapshot()
		res, ferr := r.Finalize()
		if ferr != nil {
			if err == nil {
				err = ferr
			}
			s.mu.Lock()
			s.state = StateFailed
			s.failMsg = ferr.Error()
			s.mu.Unlock()
			continue
		}
		results[i] = res
	}
	s.mu.Lock()
	s.snaps = snaps
	if s.state != StateFailed {
		s.results = results
	}
	state := s.state
	s.mu.Unlock()
	s.finished = true
	s.publishEvent("done", map[string]interface{}{"session": s.ID, "state": string(state)})
	s.events.close()
	if s.metrics != nil {
		s.metrics.onSessionFinished()
	}
}

// abort ends a session whose pump panicked. Its engines may have stopped
// mid-window, so they are closed, not finalized, and the session keeps no
// results; the panic is reported on its status and on the event stream. A
// panic inside finish (a policy's, say, from Finalize) lands here too; one
// after finish has reported the session leaves that report standing.
func (s *Session) abort(p interface{}) {
	if s.finished {
		return
	}
	msg := fmt.Sprintf("serve: session %s panicked: %v", s.ID, p)
	s.mu.Lock()
	s.state = StateFailed
	s.failMsg = msg
	s.results = nil
	s.mu.Unlock()
	for _, r := range s.runners {
		r.Close()
	}
	s.publishEvent("done", map[string]interface{}{"session": s.ID, "state": string(StateFailed), "error": msg})
	s.events.close()
	if s.metrics != nil {
		s.metrics.onSessionFinished()
	}
}

// PolicyVerdict is one policy's standing at a window boundary.
type PolicyVerdict struct {
	Policy     string  `json:"policy"`
	QoSMetFrac float64 `json:"qos_met_frac"`
	Joules     float64 `json:"joules,omitempty"`
	Placed     int     `json:"placed"`
	Pending    int     `json:"pending"`
	Completed  int     `json:"completed"`
	Running    int     `json:"running"`

	// DiffPlacements counts jobs this policy currently hosts on a different
	// node than the baseline (engine 0) — the shadow replay's "where do they
	// disagree" signal. Always 0 for the baseline itself.
	DiffPlacements int `json:"diff_placements,omitempty"`
}

// WindowVerdict is the per-window side-by-side of a shadow session (a
// single-policy session gets one entry and no diffs).
type WindowVerdict struct {
	Window   int             `json:"window"`
	NowSec   float64         `json:"now_sec"`
	Policies []PolicyVerdict `json:"policies"`
}

// publishWindow snapshots every engine after a stepped window, stores the
// verdict, and emits the window's SSE frames (baseline placement decisions
// drained from the tracer, then the window verdict).
func (s *Session) publishWindow() {
	snaps := make([]sched.Snapshot, len(s.runners))
	for i, r := range s.runners {
		snaps[i] = r.Snapshot()
	}
	v := WindowVerdict{Window: snaps[0].Window, NowSec: snaps[0].NowSec}
	for i, snap := range snaps {
		pv := s.verdictOf(i, snap)
		if i > 0 {
			base := snaps[0].JobNodes
			for id, node := range snap.JobNodes {
				if id < len(base) && node != base[id] {
					pv.DiffPlacements++
				}
			}
		}
		v.Policies = append(v.Policies, pv)
	}
	s.mu.Lock()
	s.snaps = snaps
	s.verdicts = append(s.verdicts, v)
	s.mu.Unlock()

	// Baseline placement decisions since the last drain, in emission order.
	s.cursor = s.obsv[0].Tracer.RecordsSince(s.cursor, func(r obs.Record) {
		if r.Kind != obs.KindPlacement {
			return
		}
		node := ""
		if r.Node >= 0 && int(r.Node) < len(s.res.Cfg.Nodes) {
			node = s.res.Cfg.Nodes[r.Node].Name
		}
		s.publishEvent("placement", map[string]interface{}{
			"window":     r.Window,
			"at_sec":     float64(r.At) / 1e9,
			"job":        r.A,
			"node":       node,
			"candidates": r.B,
		})
	})
	s.publishEvent("window", v)
}

// publishEvent renders one SSE frame (id + event + data) and hands it to the
// hub. Pump goroutine only, so ids and frames are strictly ordered.
func (s *Session) publishEvent(kind string, payload interface{}) {
	data, err := json.Marshal(payload)
	if err != nil {
		return
	}
	s.eventSeq++
	frame := fmt.Sprintf("id: %d\nevent: %s\ndata: %s\n\n", s.eventSeq, kind, data)
	s.events.publish([]byte(frame))
}

// SessionStatus is the GET view of a session.
type SessionStatus struct {
	ID       string   `json:"id"`
	Name     string   `json:"name"`
	State    string   `json:"state"`
	Error    string   `json:"error,omitempty"`
	Policies []string `json:"policies"`

	Window  int     `json:"window"`
	Windows int     `json:"windows"`
	NowSec  float64 `json:"now_sec"`

	// Accepted / Rejected / Injected are the ingest ledger: names accepted
	// into the queue, names bounced with 429, and names already injected
	// into the engines. At drain, accepted == injected.
	Accepted int `json:"accepted"`
	Rejected int `json:"rejected"`
	Injected int `json:"injected"`

	QueueDepth int `json:"queue_depth"`
	QueueCap   int `json:"queue_cap"`

	Snapshots []PolicyVerdict `json:"snapshots"`
}

// Status captures the mutex-guarded view the pump last published.
func (s *Session) Status() SessionStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := SessionStatus{
		ID:         s.ID,
		Name:       s.Name,
		State:      string(s.state),
		Error:      s.failMsg,
		Policies:   s.Policies(),
		Accepted:   s.accepted,
		Rejected:   s.rejected,
		Injected:   s.injected,
		QueueDepth: len(s.ingest),
		QueueCap:   s.res.QueueCap,
	}
	for i, snap := range s.snaps {
		st.Window, st.Windows, st.NowSec = snap.Window, snap.Windows, snap.NowSec
		st.Snapshots = append(st.Snapshots, s.verdictOf(i, snap))
	}
	return st
}

// verdictOf reports engine i's snapshot as a policy verdict, with no
// placement diff counted.
func (s *Session) verdictOf(i int, snap sched.Snapshot) PolicyVerdict {
	return PolicyVerdict{
		Policy:     s.res.Policies[i].Name(),
		QoSMetFrac: snap.QoSMetFrac,
		Joules:     snap.Joules,
		Placed:     snap.Placed,
		Pending:    snap.Pending,
		Completed:  snap.Completed,
		Running:    snap.Running,
	}
}

// Verdicts returns the per-window shadow verdicts published so far.
func (s *Session) Verdicts() []WindowVerdict {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]WindowVerdict(nil), s.verdicts...)
}

// Results returns the finalized per-policy results (engine order), or
// ok=false while the session is still running or after a failure.
func (s *Session) Results() (results []sched.Result, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.results == nil {
		return nil, false
	}
	return s.results, true
}

// canonicalPolicy maps the spec's policy aliases onto the engine display
// names, so the query side accepts either form ("telemetry" and
// "telemetry-aware" are the same engine).
func canonicalPolicy(name string) string {
	switch name {
	case "telemetry":
		return "telemetry-aware"
	case "spread":
		return "spread-first"
	default:
		return name
	}
}

// ResultFor returns the finalized result for one policy by name ("" means
// the baseline); spec aliases and engine names both match.
func (s *Session) ResultFor(policy string) (sched.Result, error) {
	results, ok := s.Results()
	if !ok {
		s.mu.Lock()
		state := s.state
		s.mu.Unlock()
		return sched.Result{}, fmt.Errorf("serve: session %s has no results (state %s)", s.ID, state)
	}
	if policy == "" {
		return results[0], nil
	}
	for _, res := range results {
		if res.Policy == canonicalPolicy(policy) {
			return res, nil
		}
	}
	return sched.Result{}, fmt.Errorf("serve: session %s has no policy %q", s.ID, policy)
}

// Observer returns the observer attached to one engine by policy name (""
// means the baseline): the live tracer/metrics behind the SSE stream and the
// per-session metrics endpoints. The registry snapshots grow only at window
// boundaries on the pump goroutine; render it after Done (or accept a
// boundary-torn read, which the per-session metrics endpoint documents).
func (s *Session) Observer(policy string) (*obs.Observer, error) {
	if policy == "" {
		return s.obsv[0], nil
	}
	for i, p := range s.res.Policies {
		if p.Name() == canonicalPolicy(policy) {
			return s.obsv[i], nil
		}
	}
	return nil, fmt.Errorf("serve: session %s has no policy %q", s.ID, policy)
}

// Events subscribes to the session's SSE stream.
func (s *Session) Events() (ch chan []byte, closed bool) { return s.events.subscribe() }

// EventsUnsubscribe detaches a subscriber.
func (s *Session) EventsUnsubscribe(ch chan []byte) { s.events.unsubscribe(ch) }
