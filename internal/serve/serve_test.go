package serve

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/approx-sched/pliant/internal/app"
	"github.com/approx-sched/pliant/internal/export"
	"github.com/approx-sched/pliant/internal/sched"
)

// paritySpec is the daemon/batch determinism fixture: the committed
// synthesized Google trace replayed under two candidate policies.
func paritySpec(shards int) Spec {
	csv, err := os.ReadFile("../trace/testdata/google_tasks.csv")
	if err != nil {
		panic(err)
	}
	return Spec{
		Name:       "parity",
		Seed:       7,
		Nodes:      []string{"memcached", "nginx", "mongodb"},
		Policies:   []string{"telemetry", "first-fit"},
		HorizonSec: 120,
		EpochSec:   12,
		Shape:      "diurnal",
		TimeScale:  16,
		Shards:     shards,
		Trace: &TraceSpec{
			Format:  "google",
			CSV:     string(csv),
			MaxJobs: 16,
		},
	}
}

// batchExports runs the same resolved config under batch sched.Run for one
// policy and returns the JSON and CSV export hashes.
func batchExports(t *testing.T, sp Spec, policy int) (jsonHash, csvHash string) {
	t.Helper()
	res, err := sp.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	cfg := res.Cfg
	cfg.Policy = res.Policies[policy]
	out, err := sched.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var j, c bytes.Buffer
	if err := export.WriteSchedResultJSON(&j, out); err != nil {
		t.Fatal(err)
	}
	if err := export.WriteSchedTraceCSV(&c, out); err != nil {
		t.Fatal(err)
	}
	return sha(j.Bytes()), sha(c.Bytes())
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// get fetches a daemon URL and returns status and body.
func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestDaemonBatchParity pins the tentpole determinism claim: a shadow
// session replayed through the daemon produces byte-identical JSON/CSV
// exports to batch sched.Run on the same config, for every candidate
// policy, at shards 1 and 4 — and the shard counts agree with each other.
func TestDaemonBatchParity(t *testing.T) {
	type hashes struct{ j, c string }
	byShards := map[int]map[string]hashes{}
	for _, shards := range []int{1, 4} {
		sp := paritySpec(shards)
		srv := NewServer(Options{})
		ts := httptest.NewServer(srv)
		defer ts.Close()

		body, err := json.Marshal(sp)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var st SessionStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create: status %d (%+v)", resp.StatusCode, st)
		}

		sess, ok := srv.Session(st.ID)
		if !ok {
			t.Fatalf("session %q not registered", st.ID)
		}
		sess.Wait()

		byShards[shards] = map[string]hashes{}
		for i, policy := range []string{"telemetry", "first-fit"} {
			code, j := get(t, ts.URL+"/v1/sessions/"+st.ID+"/result?policy="+policy)
			if code != http.StatusOK {
				t.Fatalf("result %s: status %d: %s", policy, code, j)
			}
			code, c := get(t, ts.URL+"/v1/sessions/"+st.ID+"/result.csv?policy="+policy)
			if code != http.StatusOK {
				t.Fatalf("result.csv %s: status %d: %s", policy, code, c)
			}
			daemon := hashes{sha(j), sha(c)}
			wantJ, wantC := batchExports(t, sp, i)
			if daemon.j != wantJ || daemon.c != wantC {
				t.Errorf("shards=%d policy=%s: daemon exports diverge from batch sched.Run\n  json %s vs %s\n  csv  %s vs %s",
					shards, policy, daemon.j, wantJ, daemon.c, wantC)
			}
			byShards[shards][policy] = daemon
		}

		// The shadow verdicts cover every window with both policies.
		code, vbody := get(t, ts.URL+"/v1/sessions/"+st.ID+"/verdicts")
		if code != http.StatusOK {
			t.Fatalf("verdicts: status %d", code)
		}
		var verdicts []WindowVerdict
		if err := json.Unmarshal(vbody, &verdicts); err != nil {
			t.Fatal(err)
		}
		if len(verdicts) != 10 {
			t.Errorf("shards=%d: got %d verdicts, want 10", shards, len(verdicts))
		}
		for _, v := range verdicts {
			if len(v.Policies) != 2 {
				t.Fatalf("window %d: %d policy verdicts, want 2", v.Window, len(v.Policies))
			}
		}
	}
	for policy, one := range byShards[1] {
		if four := byShards[4][policy]; one != four {
			t.Errorf("policy %s: shards=1 and shards=4 daemon exports differ: %+v vs %+v", policy, one, four)
		}
	}
}

// TestSubmitBackpressure pins the ingest contract: a saturated queue answers
// 429 + Retry-After, and accepted jobs are neither dropped nor reordered —
// at drain the ledger balances (accepted == injected == arrived, and
// arrived == placed + pending + lost).
func TestSubmitBackpressure(t *testing.T) {
	srv := NewServer(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	sp := Spec{
		Name:       "bp",
		SubmitOnly: true,
		HorizonSec: 600,
		EpochSec:   12,
		TimeScale:  16,
		QueueCap:   4,
		PaceMS:     250, // slow pump: the queue can actually fill
	}
	body, _ := json.Marshal(sp)
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st SessionStatus
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d", resp.StatusCode)
	}

	names := app.Names()
	var acceptedOrder []string
	accepted, rejected := 0, 0
	for i := 0; i < 60 && rejected == 0; i++ {
		name := names[i%len(names)]
		payload, _ := json.Marshal(map[string][]string{"jobs": {name}})
		resp, err := http.Post(ts.URL+"/v1/sessions/"+st.ID+"/jobs", "application/json", bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted:
			accepted++
			acceptedOrder = append(acceptedOrder, name)
		case http.StatusTooManyRequests:
			rejected++
			if resp.Header.Get("Retry-After") == "" {
				t.Error("429 without Retry-After")
			}
		default:
			t.Fatalf("submit: status %d", resp.StatusCode)
		}
	}
	if rejected == 0 {
		t.Fatal("queue of 4 never saturated across 60 submissions")
	}
	if accepted < sp.QueueCap {
		t.Fatalf("only %d accepted before first 429; want at least the queue capacity %d", accepted, sp.QueueCap)
	}

	// Drain: DELETE finalizes with everything accepted injected.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+st.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var final SessionStatus
	json.NewDecoder(resp.Body).Decode(&final)
	resp.Body.Close()
	if final.State != string(StateStopped) && final.State != string(StateDone) {
		t.Fatalf("after DELETE: state %s (%s)", final.State, final.Error)
	}
	if final.Accepted != accepted || final.Injected != accepted {
		t.Errorf("ledger: accepted=%d injected=%d, want both %d", final.Accepted, final.Injected, accepted)
	}

	code, rbody := get(t, ts.URL+"/v1/sessions/"+st.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("result: status %d: %s", code, rbody)
	}
	var res struct {
		Arrived   int  `json:"arrived"`
		Placed    int  `json:"placed"`
		Pending   int  `json:"pending"`
		JobsLost  int  `json:"jobs_lost"`
		Truncated bool `json:"truncated"`
		Jobs      []struct {
			App string `json:"app"`
		} `json:"jobs"`
	}
	if err := json.Unmarshal(rbody, &res); err != nil {
		t.Fatal(err)
	}
	if res.Arrived != accepted {
		t.Errorf("arrived %d, want the %d accepted submissions (submit-only session)", res.Arrived, accepted)
	}
	if res.Arrived != res.Placed+res.Pending+res.JobsLost {
		t.Errorf("ledger: arrived %d != placed %d + pending %d + lost %d", res.Arrived, res.Placed, res.Pending, res.JobsLost)
	}
	if !res.Truncated {
		t.Error("stopped-early session's export not marked truncated")
	}
	// No reordering: job IDs are assigned in injection order, which must be
	// acceptance order.
	for i, j := range res.Jobs {
		if j.App != acceptedOrder[i] {
			t.Fatalf("job %d: app %q, want %q (accepted order)", i, j.App, acceptedOrder[i])
		}
	}
}

// TestEventsOrdering pins the SSE contract: one subscriber sees strictly
// increasing event ids, window events in window order, and a terminal done
// frame when the session finalizes.
func TestEventsOrdering(t *testing.T) {
	srv := NewServer(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	sp := Spec{
		Name:       "sse",
		HorizonSec: 120,
		EpochSec:   12,
		Policies:   []string{"first-fit"},
		TimeScale:  16,
		PaceMS:     30, // slow enough for the subscriber to attach early
	}
	body, _ := json.Marshal(sp)
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st SessionStatus
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/v1/sessions/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	var lastID, lastWindow int64 = 0, -1
	windows, placements, dones := 0, 0, 0
	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var event string
	deadline := time.Now().Add(30 * time.Second)
	for scanner.Scan() {
		if time.Now().After(deadline) {
			t.Fatal("stream did not terminate")
		}
		line := scanner.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			var id int64
			fmt.Sscanf(line, "id: %d", &id)
			if id <= lastID {
				t.Fatalf("event id %d after %d: not strictly increasing", id, lastID)
			}
			lastID = id
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "window":
				var v WindowVerdict
				if err := json.Unmarshal([]byte(data), &v); err != nil {
					t.Fatal(err)
				}
				if int64(v.Window) <= lastWindow {
					t.Fatalf("window %d after %d: out of order", v.Window, lastWindow)
				}
				lastWindow = int64(v.Window)
				windows++
			case "placement":
				placements++
			case "done":
				dones++
			}
		}
	}
	if dones != 1 {
		t.Errorf("got %d done frames, want exactly 1", dones)
	}
	if windows == 0 {
		t.Error("no window frames observed")
	}
	if placements == 0 {
		t.Error("no placement frames observed")
	}
}

// TestSubmitValidation pins the 400/409 edges of the submission API.
func TestSubmitValidation(t *testing.T) {
	srv := NewServer(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	sp := Spec{SubmitOnly: true, HorizonSec: 60, EpochSec: 12, TimeScale: 16, PaceMS: 100}
	body, _ := json.Marshal(sp)
	resp, _ := http.Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader(body))
	var st SessionStatus
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()

	// Unknown app name: rejected whole with 400, nothing accepted.
	payload, _ := json.Marshal(map[string][]string{"jobs": {"no-such-app"}})
	resp, _ = http.Post(ts.URL+"/v1/sessions/"+st.ID+"/jobs", "application/json", bytes.NewReader(payload))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown app: status %d, want 400", resp.StatusCode)
	}

	// Stop the session; further submissions answer 409.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+st.ID, nil)
	resp, _ = http.DefaultClient.Do(req)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	payload, _ = json.Marshal(map[string][]string{"jobs": {app.Names()[0]}})
	resp, _ = http.Post(ts.URL+"/v1/sessions/"+st.ID+"/jobs", "application/json", bytes.NewReader(payload))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("submit after stop: status %d, want 409", resp.StatusCode)
	}

	if code, _ := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Errorf("healthz: %d", code)
	}
	code, metrics := get(t, ts.URL+"/metrics")
	if code != http.StatusOK || !bytes.Contains(metrics, []byte("pliant_serve_sessions_created_total")) {
		t.Errorf("metrics: %d\n%s", code, metrics)
	}
}

// TestSubmitBodyBounds pins the body decoders: a submission past the 1 MiB
// bound and a session spec past maxSpecBytes answer 413, an unknown field
// 400, and a normal batch still 202.
func TestSubmitBodyBounds(t *testing.T) {
	srv := NewServer(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	sp := Spec{SubmitOnly: true, HorizonSec: 60, EpochSec: 12, TimeScale: 16, PaceMS: 100}
	body, _ := json.Marshal(sp)
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st SessionStatus
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	defer func() {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+st.ID, nil)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()

	submit := func(payload []byte) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/sessions/"+st.ID+"/jobs", "application/json", bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	name := app.Names()[0]
	huge := make([]string, maxSubmitBytes/len(name)+1)
	for i := range huge {
		huge[i] = name
	}
	oversized, _ := json.Marshal(map[string][]string{"jobs": huge})
	if code := submit(oversized); code != http.StatusRequestEntityTooLarge {
		t.Errorf("%d-byte body: status %d, want 413", len(oversized), code)
	}
	if code := submit([]byte(`{"jobs":["` + name + `"],"priority":9}`)); code != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400", code)
	}
	if code := submit([]byte(`{"jobs":["` + name + `"]}`)); code != http.StatusAccepted {
		t.Errorf("normal submit: status %d, want 202", code)
	}
	hugeSpec := []byte(`{"trace":{"csv":"` + strings.Repeat("x", maxSpecBytes) + `"}}`)
	resp, err = http.Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader(hugeSpec))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("%d-byte spec: status %d, want 413", len(hugeSpec), resp.StatusCode)
	}
}

// TestSynthesizeJobsCap: a session spec asking the synthesizer for one job
// past maxSynthJobs is a 400 that names the cap, which the spec check
// returns before any trace bytes are made.
func TestSynthesizeJobsCap(t *testing.T) {
	ts := httptest.NewServer(NewServer(Options{}))
	defer ts.Close()
	sp := Spec{HorizonSec: 60, TimeScale: 16, Trace: &TraceSpec{Synthesize: &SynthSpec{Jobs: maxSynthJobs + 1}}}
	body, _ := json.Marshal(sp)
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "exceeds the cap") {
		t.Errorf("%d-job synthesize: status %d %q, want 400 naming the cap", maxSynthJobs+1, resp.StatusCode, msg)
	}
}

// TestFaultScheduleBound: Resolve refuses a fault plan whose expected
// schedule exceeds maxFaultEvents, whether from a tiny MTTF over a long
// horizon or from outages over a large domain, and passes the plans the
// benchmarks and the CLI's documented churn run. Refusal happens before
// NewRunner would compile the schedule.
func TestFaultScheduleBound(t *testing.T) {
	nodes := func(n int) []string {
		names := make([]string, n)
		for i := range names {
			names[i] = "memcached"
		}
		return names
	}
	wide := make([]OutageSpec, 4096) // 2·256 events each, twice maxFaultEvents
	for i := range wide {
		wide[i] = OutageSpec{AtSec: 1, Domain: 0, DurationSec: 1}
	}
	cases := []struct {
		name string
		sp   Spec
		want string // "" = accepted
	}{
		{"tiny-mttf", Spec{MTTFSec: 1e-9, HorizonSec: 1e9}, "mttf_sec"},
		{"wide-outages", Spec{Nodes: nodes(256), FaultDomain: 256, Outages: wide}, "outages"},
		{"storm", Spec{Nodes: nodes(256), HorizonSec: 120, MTTFSec: 300, MTTRSec: 10}, ""},
		{"cli-churn", Spec{MTTFSec: 120, MTTRSec: 15}, ""},
		{"day-on-max-nodes", Spec{Nodes: nodes(maxNodes), HorizonSec: 86400, MTTFSec: 3600}, ""},
	}
	for _, c := range cases {
		_, err := c.sp.Resolve()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: err %v, want a refusal naming %s", c.name, err, c.want)
		}
	}
}

// TestSpecBoundsRejected: a horizon or epoch past what sim.Duration holds,
// a nodes list past maxNodes, and a fault plan past maxFaultEvents are 400s
// that name the field, instead of wrapping negative, sizing a cluster by
// body length or compiling billions of fault events.
func TestSpecBoundsRejected(t *testing.T) {
	ts := httptest.NewServer(NewServer(Options{}))
	defer ts.Close()
	cases := []struct {
		name, body, want string
	}{
		{"horizon", `{"horizon_sec": 1e10}`, "horizon_sec"},
		{"epoch", `{"epoch_sec": 1e10}`, "epoch_sec"},
		{"nodes", `{"nodes": [` + strings.Repeat(`"nginx",`, maxNodes) + `"nginx"]}`, "nodes"},
		{"faults", `{"mttf_sec": 1e-9, "horizon_sec": 1e9}`, "mttf_sec"},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), c.want) {
			t.Errorf("%s: status %d %q, want 400 naming %s", c.name, resp.StatusCode, msg, c.want)
		}
	}
}

// TestCreateSessionLimitConcurrent: concurrent creates racing past the
// MaxSessions check must not all succeed — the slot is reserved under the
// server lock before the session is built.
func TestCreateSessionLimitConcurrent(t *testing.T) {
	srv := NewServer(Options{MaxSessions: 2})
	defer srv.Drain()
	sp := Spec{SubmitOnly: true, HorizonSec: 600, EpochSec: 12, TimeScale: 16, PaceMS: 250}
	start := make(chan struct{})
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		go func() {
			<-start
			_, err := srv.CreateSession(sp)
			errs <- err
		}()
	}
	close(start)
	created := 0
	for i := 0; i < 16; i++ {
		switch err := <-errs; err {
		case nil:
			created++
		case errTooManySessions:
		default:
			t.Errorf("create: %v", err)
		}
	}
	if created != 2 {
		t.Errorf("%d sessions created under MaxSessions = 2, want 2", created)
	}
}

// TestShadowReplayLibrary drives the non-HTTP shadow helper and checks the
// verdict diffs are populated.
func TestShadowReplayLibrary(t *testing.T) {
	out, err := ShadowReplay(Spec{
		Policies:   []string{"telemetry", "spread"},
		HorizonSec: 96,
		EpochSec:   12,
		TimeScale:  16,
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 2 || len(out.Policies) != 2 {
		t.Fatalf("got %d results / %d policies, want 2/2", len(out.Results), len(out.Policies))
	}
	if len(out.Verdicts) != 8 {
		t.Fatalf("got %d verdicts, want 8", len(out.Verdicts))
	}
	for _, res := range out.Results {
		if res.Truncated {
			t.Errorf("policy %s: full-horizon shadow replay marked truncated", res.Policy)
		}
	}
}
