package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/approx-sched/pliant/internal/app"
	"github.com/approx-sched/pliant/internal/cluster"
	"github.com/approx-sched/pliant/internal/export"
	"github.com/approx-sched/pliant/internal/obs"
	"github.com/approx-sched/pliant/internal/sched"
	"github.com/approx-sched/pliant/internal/serve"
)

// The serve-shadow workload drives an in-process serve.Server over loopback
// TCP in two halves of the measured time:
//
//   - shadow sessions, one after another: three policies in lockstep on six
//     nodes, unpaced, each tailed by one SSE client and ended by fetching
//     the three results;
//   - then one paced, submit-only ingest session receiving an open-loop
//     stream of single-job submissions at a fixed rate from two senders on
//     two keep-alive connections. Each submission's latency counts from when
//     it was due, so a stall also delays the submissions queued behind it.
//
// The halves run one after the other: with both at once, the submit
// stream's cost grows with a shadow session's length and the scheduling
// wait of submits with the shadow's load, and both swung the figures by
// 10-20% from run to run on a two-core box.

const (
	submitsPerSec = 100
	submitSenders = 2
	seqHeader     = "X-Perfbench-Seq"
)

var shadowPolicies = []string{"first-fit", "telemetry", "spread"}

// shadowSpec is one shadow session: six nodes kept full from the second
// window on by a Poisson stream of jobs (1/s against 18 slots) drawn in
// catalog order, so the work per session barely depends on the seed (at 0.6
// jobs/s it moved by 18% from seed to seed), with one shard per core. The
// pending queue stays short enough that a window's SSE frames (one per
// placement offer) fit the subscriber buffer.
func shadowSpec(seed uint64, tiny bool) serve.Spec {
	nodes, horizon := 6, 120.0
	if tiny {
		nodes, horizon = 3, 30
	}
	var names []string
	for i := 0; i < nodes; i++ {
		names = append(names, []string{"memcached", "nginx", "mongodb"}[i%3])
	}
	return serve.Spec{
		Name:       "shadow",
		Seed:       seed,
		Nodes:      names,
		Policies:   shadowPolicies,
		Jobs:       app.Names(),
		HorizonSec: horizon,
		EpochSec:   10,
		Rate:       1,
		TimeScale:  16,
		Shards:     runtime.NumCPU(),
	}
}

// ingestSpec is the submit-only session; its horizon outlasts the measured
// phase at its pace, and the benchmark stops it when the phase ends. Its
// episodes run at a coarse time scale so that the session's cost is the
// ingest path (decode, queue, injection, stepping) rather than simulation.
func ingestSpec(seed uint64, seconds float64) serve.Spec {
	windows := int(seconds*1000/100)*4 + 100
	return serve.Spec{
		Name:       "ingest",
		Seed:       seed,
		Nodes:      []string{"memcached", "nginx", "mongodb"},
		Policies:   []string{"telemetry"},
		HorizonSec: float64(windows) * 10,
		EpochSec:   10,
		TimeScale:  1024,
		SubmitOnly: true,
		PaceMS:     100,
		QueueCap:   512,
	}
}

// handlerTimes collects each submit's time inside the handler, keyed by the
// sequence number its sender put in a header.
type handlerTimes struct {
	mu    sync.Mutex
	bySeq map[int]time.Duration
}

// timedHandler wraps Server.ServeHTTP in traced runs: it records a span per
// request and each submit's handler time.
type timedHandler struct {
	inner http.Handler
	spans *spanLog
	times *handlerTimes
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	h.inner.ServeHTTP(w, r)
	t1 := time.Now()
	attrs := map[string]int64{}
	if s := r.Header.Get(seqHeader); s != "" {
		if seq, err := strconv.Atoi(s); err == nil {
			attrs["seq"] = int64(seq)
			h.times.mu.Lock()
			h.times.bySeq[seq] = t1.Sub(t0)
			h.times.mu.Unlock()
		}
	}
	h.spans.add(0, 0, 0, "serve.Server.ServeHTTP "+r.Method+" "+routeOf(r.URL.Path), t0, t1, attrs)
}

// routeOf replaces the session id in a path with {id}.
func routeOf(path string) string {
	rest, ok := strings.CutPrefix(path, "/v1/sessions/")
	if !ok {
		return path
	}
	if _, sub, ok := strings.Cut(rest, "/"); ok {
		return "/v1/sessions/{id}/" + sub
	}
	return "/v1/sessions/{id}"
}

// submitSample is one open-loop submission.
type submitSample struct {
	seq     int
	latency time.Duration // from due time to the end of the response
	late    time.Duration // how late the sender started it
	ok      bool
}

// daemon is a server under test plus its control client.
type daemon struct {
	base  string
	ctl   *http.Client // session control, SSE and result fetches
	close func()       // shuts the server down and waits for it
}

func (d *daemon) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := d.ctl.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// create posts a session spec and returns its id.
func (d *daemon) create(sp serve.Spec) (string, error) {
	body, err := json.Marshal(sp)
	if err != nil {
		return "", err
	}
	code, data, err := d.do(http.MethodPost, "/v1/sessions", body)
	if err != nil {
		return "", err
	}
	if code != http.StatusCreated {
		return "", fmt.Errorf("create session: %d %s", code, data)
	}
	var st serve.SessionStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return "", err
	}
	return st.ID, nil
}

func (d *daemon) stop(id string) (serve.SessionStatus, error) {
	var st serve.SessionStatus
	code, data, err := d.do(http.MethodDelete, "/v1/sessions/"+id, nil)
	if err != nil {
		return st, err
	}
	if code != http.StatusOK {
		return st, fmt.Errorf("stop session %s: %d %s", id, code, data)
	}
	return st, json.Unmarshal(data, &st)
}

// waitDone polls a session's status until it has finalized.
func (d *daemon) waitDone(id string) error {
	for {
		code, data, err := d.do(http.MethodGet, "/v1/sessions/"+id, nil)
		if err != nil {
			return err
		}
		var st serve.SessionStatus
		if err := json.Unmarshal(data, &st); err != nil || code != http.StatusOK {
			return fmt.Errorf("status of %s: %d %s", id, code, data)
		}
		if st.State != string(serve.StateRunning) {
			return nil
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// result fetches one policy's exported result.
func (d *daemon) result(id, policy string) ([]byte, error) {
	code, data, err := d.do(http.MethodGet, "/v1/sessions/"+id+"/result?policy="+policy, nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("result %s/%s: %d %s", id, policy, code, data)
	}
	return data, nil
}

// tail reads a session's SSE stream to its end and counts the frames.
func (d *daemon) tail(id string) (frames int, sawDone bool, err error) {
	resp, err := d.ctl.Get(d.base + "/v1/sessions/" + id + "/events")
	if err != nil {
		return 0, false, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if ev, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
			frames++
			sawDone = sawDone || ev == "done"
		}
	}
	return frames, sawDone, sc.Err()
}

// windowsTotal scrapes the daemon's window counter from /metrics.
func (d *daemon) windowsTotal() (float64, error) {
	_, data, err := d.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "pliant_serve_windows_total "); ok {
			return strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	return 0, fmt.Errorf("no pliant_serve_windows_total in /metrics")
}

// submitter is the open-loop load generator.
type submitter struct {
	base    string
	session string
	names   []string
	start   time.Time
	gap     time.Duration

	stop    chan struct{}
	wg      sync.WaitGroup
	samples [submitSenders][]submitSample
	clients [submitSenders]*http.Client
}

// run starts the senders; sender k sends submissions k, k+senders, ...
func (s *submitter) run() {
	s.stop = make(chan struct{})
	for k := 0; k < submitSenders; k++ {
		s.clients[k] = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
		s.wg.Add(1)
		go s.sender(k)
	}
}

func (s *submitter) sender(k int) {
	defer s.wg.Done()
	for seq := k; ; seq += submitSenders {
		due := s.start.Add(time.Duration(seq) * s.gap)
		select {
		case <-s.stop:
			return
		case <-time.After(time.Until(due)):
		}
		sent := time.Now()
		body := fmt.Sprintf(`{"jobs":[%q]}`, s.names[seq%len(s.names)])
		ok := s.post(k, seq, body)
		s.samples[k] = append(s.samples[k], submitSample{
			seq: seq, latency: time.Since(due), late: sent.Sub(due), ok: ok,
		})
	}
}

func (s *submitter) post(k, seq int, body string) bool {
	req, err := http.NewRequest(http.MethodPost, s.base+"/v1/sessions/"+s.session+"/jobs", strings.NewReader(body))
	if err != nil {
		return false
	}
	req.Header.Set(seqHeader, strconv.Itoa(seq))
	resp, err := s.clients[k].Do(req)
	if err != nil {
		return false
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusAccepted
}

// halt stops the senders and waits for their in-flight submissions.
func (s *submitter) halt() []submitSample {
	close(s.stop)
	s.wg.Wait()
	var all []submitSample
	for k := range s.samples {
		all = append(all, s.samples[k]...)
		s.clients[k].CloseIdleConnections()
	}
	return all
}

// startDaemon serves a fresh serve.Server on a loopback listener. Each
// shadow session and each phase gets its own, so memory a finished session
// keeps does not pile up across the run and the peak resident set is that of
// one session, not of however many fitted in the measured time.
func (b *bench) startDaemon(times *handlerTimes) (*daemon, error) {
	srv := serve.NewServer(serve.Options{Version: "perfbench"})
	var handler http.Handler = srv
	if b.spans != nil {
		handler = &timedHandler{inner: srv, spans: b.spans, times: times}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	ctlTransport := &http.Transport{}
	d := &daemon{base: "http://" + ln.Addr().String(), ctl: &http.Client{Transport: ctlTransport}}
	d.close = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx)
		srv.Drain()
		<-served
		ctlTransport.CloseIdleConnections()
	}
	return d, nil
}

// runServe is the serve-shadow workload.
func runServe(b *bench) error {
	seed, tiny := b.opts.seed, b.opts.tiny
	shadow := shadowSpec(seed, tiny)
	ingest := ingestSpec(seed, b.opts.seconds)
	times := &handlerTimes{bySeq: map[int]time.Duration{}}

	// Set-up: the two session creations, several times.
	probes := 21
	if tiny {
		probes = 1
	}
	var setups, setupsCPU, creates []float64
	for i := 0; i < probes; i++ {
		wall, cpu, create, err := b.setupProbe(times, shadow, ingest)
		if err != nil {
			return err
		}
		setups = append(setups, wall.Seconds())
		setupsCPU = append(setupsCPU, cpu.Seconds())
		creates = append(creates, create.Seconds()*1e3)
	}

	// First half of the measured time: shadow sessions back to back (at
	// least two, so their results can be compared).
	half := time.Duration(b.opts.seconds / 2 * float64(time.Second))
	phaseStart := time.Now()
	var runs, cpus, allocs, frames []float64
	var first [][]byte
	windows := 0.0
	for len(runs) < 2 || time.Since(phaseStart) < half {
		d, err := b.startDaemon(times)
		if err != nil {
			return err
		}
		results, err := b.shadowSession(d, shadow, &runs, &cpus, &allocs, &frames)
		if err == nil {
			var w float64
			w, err = d.windowsTotal()
			windows += w
		}
		d.close()
		if err != nil {
			return err
		}
		if first == nil {
			first = results
		}
		for i, p := range shadowPolicies {
			b.check(bytes.Equal(results[i], first[i]), "shadow %s result of repeat %d differs from the first", p, len(runs))
		}
	}

	// Second half: the open-loop submit stream into the paced ingest
	// session, for a fixed time, so every run attempts the same number.
	d, err := b.startDaemon(times)
	if err != nil {
		return err
	}
	samples, accepted, w, err := b.ingestPhase(d, ingest, half)
	d.close()
	if err != nil {
		return err
	}
	windows += w
	phase := time.Since(phaseStart)

	// Daemon ≡ batch: each policy's result equals sched.Run of the
	// resolved spec, byte for byte.
	res, err := shadow.Resolve()
	if err != nil {
		return err
	}
	for i, pol := range res.Policies {
		cfg := res.Cfg
		cfg.Policy = pol
		out, err := sched.Run(cfg)
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := export.WriteSchedResultJSON(&buf, out); err != nil {
			return err
		}
		b.check(bytes.Equal(buf.Bytes(), first[i]), "daemon result for %s differs from batch sched.Run", pol.Name())
	}

	var lat, late []float64
	for _, s := range samples {
		lat = append(lat, s.latency.Seconds()*1e3)
		late = append(late, s.late.Seconds()*1e3)
	}
	b.e2e["cpu_s"] = median(cpus)
	b.e2e["setup_s"] = median(setupsCPU)
	b.e2e["alloc_mb"] = median(allocs)
	b.wall(median(runs), median(setups), quantile(lat, 0.50), quantile(lat, 0.99))
	b.logf("%d shadow sessions, %d submits (%d accepted) over %.2fs", len(runs), len(samples), accepted, phase.Seconds())
	if b.spans == nil {
		return nil
	}

	var handlerUS, waitMS []float64
	times.mu.Lock()
	for _, s := range samples {
		if h, ok := times.bySeq[s.seq]; ok {
			handlerUS = append(handlerUS, h.Seconds()*1e6)
			waitMS = append(waitMS, (s.latency-h).Seconds()*1e3)
		}
	}
	times.mu.Unlock()
	set := func(name string, v float64) { b.layer[name] = v }
	set("serve.submit_handler_us.p50", quantile(handlerUS, 0.50))
	set("serve.submit_handler_us.p99", quantile(handlerUS, 0.99))
	set("serve.submit_wait_ms.p50", quantile(waitMS, 0.50))
	set("serve.windows_per_s", windows/phase.Seconds())
	set("serve.create_ms", median(creates))
	set("serve.sse_frames", median(frames))
	set("serve.submits", float64(len(samples)))
	set("serve.submit_refused_frac", float64(len(samples)-accepted)/float64(len(samples)))
	set("loadgen.late_ms.p99", quantile(late, 0.99))

	on, err := b.lockstep(res, true)
	if err != nil {
		return err
	}
	off, err := b.lockstep(res, false)
	if err != nil {
		return err
	}
	set("serve.lockstep_step_s", on)
	set("serve.overhead_s", median(runs)-on)
	set("obs.overhead_frac", on/off-1)
	b.logSelfTimes()
	return b.ladderRungs()
}

// setupProbe creates the two sessions on a fresh server from a collected
// heap, so that every probe starts from the same state (sessions a server
// keeps, and their allocations, would otherwise grow from probe to probe),
// and returns the wall and CPU time of the two creations and of the shadow
// creation alone. The paced ingest session goes first: the unpaced shadow
// session starts stepping as soon as it exists, and would compete with the
// second creation.
func (b *bench) setupProbe(times *handlerTimes, shadow, ingest serve.Spec) (wall, cpu, create time.Duration, err error) {
	d, err := b.startDaemon(times)
	if err != nil {
		return 0, 0, 0, err
	}
	defer d.close()
	runtime.GC()
	c0 := processCPU()
	t0 := time.Now()
	iid, err := d.create(ingest)
	if err != nil {
		return 0, 0, 0, err
	}
	t1 := time.Now()
	sid, err := d.create(shadow)
	if err != nil {
		return 0, 0, 0, err
	}
	t2 := time.Now()
	cpu = processCPU() - c0
	for _, id := range []string{sid, iid} {
		if _, err := d.stop(id); err != nil {
			return 0, 0, 0, err
		}
	}
	return t2.Sub(t0), cpu, t2.Sub(t1), nil
}

// shadowSession runs one shadow session on d: create, tail its SSE stream
// to the end, fetch the three results. It appends the session's wall time,
// CPU time, allocation and SSE frame count, and returns the results.
func (b *bench) shadowSession(d *daemon, shadow serve.Spec, runs, cpus, allocs, frames *[]float64) ([][]byte, error) {
	rep := b.spans.id()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	c0 := processCPU()
	t0 := time.Now()
	id, err := d.create(shadow)
	if err != nil {
		return nil, err
	}
	n, sawDone, err := d.tail(id)
	b.op(err)
	b.check(sawDone, "shadow session %s: SSE stream ended without a done event", id)
	if !sawDone {
		// A subscriber that lags is dropped; wait for the session itself.
		if err := d.waitDone(id); err != nil {
			return nil, err
		}
	}
	var results [][]byte
	for _, p := range shadowPolicies {
		data, err := d.result(id, p)
		if err != nil {
			return nil, err
		}
		results = append(results, data)
	}
	t1 := time.Now()
	cpu := processCPU() - c0
	runtime.ReadMemStats(&ms)
	b.spans.add(rep, 0, 0, "serve.shadow_session", t0, t1, map[string]int64{"sse_frames": int64(n)})
	*runs = append(*runs, t1.Sub(t0).Seconds())
	*cpus = append(*cpus, cpu.Seconds())
	*allocs = append(*allocs, float64(ms.TotalAlloc-alloc0)/1e6)
	*frames = append(*frames, float64(n))
	b.logf("shadow session run %.4fs cpu %.4fs, %d SSE frames", t1.Sub(t0).Seconds(), cpu.Seconds(), n)
	return results, nil
}

// ingestPhase streams open-loop submits into a paced submit-only session on
// d for the given time, stops the session and checks its ledger: every
// submit the clients saw accepted was injected and arrived in the result.
func (b *bench) ingestPhase(d *daemon, ingest serve.Spec, dur time.Duration) (samples []submitSample, accepted int, windows float64, err error) {
	iid, err := d.create(ingest)
	if err != nil {
		return nil, 0, 0, err
	}
	gen := &submitter{
		base:    d.base,
		session: iid,
		names:   cluster.ShuffledJobs(b.opts.seed, len(app.Names())),
		start:   time.Now().Add(20 * time.Millisecond),
		gap:     time.Second / submitsPerSec,
	}
	gen.run()
	time.Sleep(time.Until(gen.start.Add(dur)))
	samples = gen.halt()
	if windows, err = d.windowsTotal(); err != nil {
		return nil, 0, 0, err
	}
	st, err := d.stop(iid)
	if err != nil {
		return nil, 0, 0, err
	}
	data, err := d.result(iid, "")
	if err != nil {
		return nil, 0, 0, err
	}
	var ledger struct {
		Arrived int `json:"arrived"`
	}
	if err := json.Unmarshal(data, &ledger); err != nil {
		return nil, 0, 0, err
	}
	for _, s := range samples {
		b.op(submitErr(s))
		if s.ok {
			accepted++
		}
	}
	b.check(st.Accepted == accepted && st.Injected == accepted && ledger.Arrived == accepted,
		"ingest ledger: %d accepted by clients, daemon accepted %d injected %d arrived %d", accepted, st.Accepted, st.Injected, ledger.Arrived)
	return samples, accepted, windows, nil
}

func submitErr(s submitSample) error {
	if s.ok {
		return nil
	}
	return fmt.Errorf("submission %d refused", s.seq)
}

// lockstep steps the shadow session's policies as plain sched.Runners, one
// window each in turn as the session pump does, and returns the wall time
// from the first step to the last Finalize. With withObs it attaches an
// observer per runner as the daemon does, and the sched metrics are read
// from this run.
func (b *bench) lockstep(res serve.Resolved, withObs bool) (float64, error) {
	var runners []*sched.Runner
	var newRunner []float64
	for _, pol := range res.Policies {
		cfg := res.Cfg
		cfg.Policy = pol
		if withObs {
			cfg.Obs = obs.New(obs.Options{})
		}
		t0 := time.Now()
		r, err := sched.NewRunner(cfg)
		if err != nil {
			return 0, err
		}
		newRunner = append(newRunner, time.Since(t0).Seconds()*1e3)
		defer r.Close()
		runners = append(runners, r)
	}
	var steps, finalize []float64
	var coord, stepSum, phase float64
	t0 := time.Now()
	for more := true; more; {
		group := b.spans.id()
		for _, r := range runners {
			ts := time.Now()
			m, err := r.StepWindow()
			te := time.Now()
			if err != nil {
				return 0, err
			}
			more = m
			steps = append(steps, te.Sub(ts).Seconds())
			if withObs {
				b.spans.add(0, 0, group, "sched.Runner.StepWindow", ts, te, map[string]int64{"window": int64(r.Window())})
			}
		}
	}
	var results []sched.Result
	for _, r := range runners {
		tf := time.Now()
		out, err := r.Finalize()
		if err != nil {
			return 0, err
		}
		finalize = append(finalize, time.Since(tf).Seconds()*1e3)
		results = append(results, out)
	}
	wall := time.Since(t0).Seconds()
	if !withObs {
		return wall, nil
	}
	stepSum = sum(steps)
	var episodeNs, worst, shards float64
	episodes := 0
	for _, out := range results {
		p0 := out.ShardProfiles[0]
		runnerPhase := float64(p0.EpisodeNs+p0.BarrierWaitNs) / 1e9
		phase += runnerPhase
		shards = float64(len(out.ShardProfiles))
		for _, p := range out.ShardProfiles {
			episodeNs += float64(p.EpisodeNs)
			worst = max(worst, p.BarrierWaitFrac())
		}
		episodes += out.Episodes
	}
	coord = stepSum - phase
	b.check(phase <= stepSum, "lockstep: episode phase %.4fs outside the %.4fs of steps", phase, stepSum)
	set := func(name string, v float64) { b.layer[name] = v }
	set("sched.step_ms.p50", quantile(steps, 0.5)*1e3)
	set("sched.step_ms.max", maxOf(steps)*1e3)
	set("sched.windows", float64(runners[0].Windows()))
	set("sched.coordinator_s", coord)
	set("sched.coordinator_frac", coord/stepSum)
	set("sched.newrunner_ms", median(newRunner))
	set("sched.finalize_ms", median(finalize))
	set("sched.pending_end", float64(results[0].Pending))
	set("colocate.episodes", float64(results[0].Episodes))
	set("shard.barrier_wait_frac", worst)
	set("shard.parallel_eff", episodeNs/1e9/(shards*phase))
	if episodes > 0 {
		set("colocate.episode_us.mean", episodeNs/1e3/float64(episodes))
	}
	set("ladder.addup_frac", (stepSum+sum(finalize)/1e3)/wall)
	return wall, nil
}
