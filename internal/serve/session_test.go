package serve

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/approx-sched/pliant/internal/app"
	"github.com/approx-sched/pliant/internal/sched"
)

// TestNewSessionAllocBytes pins what creating a session allocates. A shadow
// session makes one observer per policy, and each observer's tracer ring is
// sized to what its run emits, so a 3-policy, 6-node session must not
// allocate the tracers' whole capacity up front.
func TestNewSessionAllocBytes(t *testing.T) {
	const limit = 1 << 20
	sp := Spec{
		Name:       "shadow",
		Seed:       42,
		Nodes:      []string{"memcached", "nginx", "mongodb", "memcached", "nginx", "mongodb"},
		Policies:   []string{"first-fit", "telemetry", "spread"},
		Jobs:       app.Names(),
		HorizonSec: 120,
		EpochSec:   10,
		Rate:       1,
		TimeScale:  16,
		Shards:     2,
		// The pump steps its first window at once and then waits out the
		// pace, so the session stops after at most one window.
		PaceMS: 60_000,
	}
	res, err := sp.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	// On one P the new pump goroutine does not run until this one blocks,
	// which it does only after the second reading.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sess, err := NewSession("s1", res, nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	sess.Stop()
	sess.Wait()
	if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
		t.Fatalf("NewSession of a 3-policy, 6-node spec allocated %d B, want < %d", got, limit)
	}
}

// panicAt is a first-fit policy that panics on the first offer of a job that
// arrived at or after atSec: with atSec at two epochs, that is at the third
// window's boundary.
type panicAt struct {
	sched.FirstFit
	atSec float64
}

func (p panicAt) Place(job sched.Job, nodes []sched.NodeState) int {
	if job.ArrivalSec >= p.atSec {
		panic("policy bug")
	}
	return p.FirstFit.Place(job, nodes)
}

// TestSessionPanicIsolated pins session isolation: a policy that panics
// fails its own session, which reports the panic on its status and its
// event stream, while another session on the same Server runs to its
// horizon with the same result as batch sched.Run.
func TestSessionPanicIsolated(t *testing.T) {
	srv := NewServer(Options{})
	defer srv.Drain()

	badSpec := Spec{
		Name:       "bad",
		Seed:       5,
		Nodes:      []string{"memcached", "nginx", "mongodb"},
		Policies:   []string{"first-fit"},
		HorizonSec: 120,
		EpochSec:   10,
		Rate:       0.3,
		TimeScale:  16,
		PaceMS:     30, // slow enough for the subscriber to attach early
	}
	res, err := badSpec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	res.Policies = []sched.Policy{panicAt{atSec: 20}}
	bad, err := srv.startSession(res)
	if err != nil {
		t.Fatal(err)
	}
	events, closed := bad.Events()
	if closed {
		t.Fatal("the panicking session ended before the subscriber attached")
	}

	good, err := srv.CreateSession(paritySpec(2))
	if err != nil {
		t.Fatal(err)
	}

	var done string
	timeout := time.After(30 * time.Second)
	for frames := true; frames; {
		select {
		case frame, ok := <-events:
			if !ok {
				frames = false
			} else if strings.Contains(string(frame), "event: done") {
				done = string(frame)
			}
		case <-timeout:
			t.Fatal("the panicking session's event stream did not end")
		}
	}
	if !strings.Contains(done, `"state":"failed"`) || !strings.Contains(done, "policy bug") {
		t.Fatalf("done frame %q does not report the panic", done)
	}
	bad.Wait()
	st := bad.Status()
	if st.State != string(StateFailed) || !strings.Contains(st.Error, "panicked: policy bug") {
		t.Fatalf("status state %q error %q, want failed with the panic", st.State, st.Error)
	}
	if st.Window != 2 {
		t.Fatalf("status window %d, want 2: the panic comes at the third window", st.Window)
	}
	if _, ok := bad.Results(); ok {
		t.Fatal("the panicked session kept results")
	}

	good.Wait()
	if st := good.Status(); st.State != string(StateDone) {
		t.Fatalf("the other session ended %q (%s), want done", st.State, st.Error)
	}
	for i, policy := range []string{"telemetry", "first-fit"} {
		out, err := good.ResultFor(policy)
		if err != nil {
			t.Fatal(err)
		}
		gotJ, gotC := exportHashes(t, out)
		wantJ, wantC := batchExports(t, paritySpec(2), i)
		if gotJ != wantJ || gotC != wantC {
			t.Fatalf("policy %s: the session's result differs from sched.Run", policy)
		}
	}
}
