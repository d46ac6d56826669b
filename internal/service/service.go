// Package service models latency-critical interactive services as M/G/k
// queueing systems whose per-request service demand is inflated by
// shared-resource contention. It provides calibrated presets for the three
// services the paper evaluates — NGINX, memcached, and MongoDB — and exposes
// exactly the control surface Pliant uses on real systems: the number of
// cores allocated to the service, and end-to-end latency observed at the
// client.
package service

import (
	"fmt"

	"github.com/approx-sched/pliant/internal/interference"
	"github.com/approx-sched/pliant/internal/platform"
	"github.com/approx-sched/pliant/internal/sim"
	"github.com/approx-sched/pliant/internal/workload"
)

// Config describes an interactive service model.
type Config struct {
	Name string

	// QoS is the 99th-percentile latency target (paper Sec. 5: the p99
	// before the knee of the latency-throughput curve in isolation).
	QoS sim.Duration

	// Demand samples per-request worker occupancy in seconds at nominal
	// (uncontended) execution.
	Demand workload.Sampler

	// WorkersPerCore is how many request-serving workers each allocated
	// core multiplexes. CPU-bound services (NGINX, memcached) pin one
	// worker per core; I/O-bound services (MongoDB) overlap many blocked
	// threads per core.
	WorkersPerCore int

	// ContentionShare is the fraction of request demand that is CPU/memory
	// execution subject to interference slowdown; the remainder (e.g.,
	// disk time) is unaffected by cache and bandwidth pressure.
	ContentionShare float64

	// Sensitivity converts shared-resource shortfall into execution-time
	// inflation for the contention-exposed part of each request.
	Sensitivity interference.Sensitivity

	// LLCMB is the service's working-set pressure on the shared LLC and
	// BWPerCoreGBs its memory-bandwidth demand per busy core.
	LLCMB        float64
	BWPerCoreGBs float64

	// MaxBacklog bounds the pending-request queue in time units: the queue
	// holds at most the requests a full-speed server would clear in this
	// span. It mirrors the listen backlogs and connection limits of real
	// servers, which bound runaway sojourn times under overload; past it,
	// requests are dropped and accounted as worst-case latency samples.
	MaxBacklog sim.Duration
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Name == "":
		return fmt.Errorf("service: missing name")
	case c.QoS <= 0:
		return fmt.Errorf("service %s: QoS must be positive", c.Name)
	case c.Demand == nil:
		return fmt.Errorf("service %s: missing demand sampler", c.Name)
	case c.WorkersPerCore <= 0:
		return fmt.Errorf("service %s: workers per core must be positive", c.Name)
	case c.ContentionShare < 0 || c.ContentionShare > 1:
		return fmt.Errorf("service %s: contention share %v outside [0,1]", c.Name, c.ContentionShare)
	case c.MaxBacklog <= 0:
		return fmt.Errorf("service %s: max backlog must be positive", c.Name)
	}
	return nil
}

// Scaled returns a copy of the config with request timescales multiplied by
// f (demand and QoS together). Queueing behaviour relative to QoS is
// invariant under this scaling — utilization, tail ratios, and divergence
// rates are dimensionless — so the fast test profile uses f>1 to simulate
// proportionally fewer requests.
func (c Config) Scaled(f float64) Config {
	out := c
	out.QoS = c.QoS.Scale(f)
	out.MaxBacklog = c.MaxBacklog.Scale(f)
	out.Demand = workload.Scale(c.Demand, f)
	return out
}

// SaturationQPS returns the analytic saturation throughput at the given core
// count: workers divided by mean demand.
func (c Config) SaturationQPS(cores int) float64 {
	w := float64(cores * c.WorkersPerCore)
	return w / c.Demand.Mean()
}

// Instance is a running service inside a simulation.
type Instance struct {
	cfg Config
	eng *sim.Engine
	rng *sim.RNG

	cores    int
	slowdown float64

	// inflation, meanDemand, and qcap cache effectiveInflation(), the mean
	// inflated demand, and queueCap(): they change only on
	// SetCores/SetSlowdown, not per request.
	inflation  float64
	meanDemand float64
	qcap       int

	busy  int
	queue reqRing

	onLatency func(sim.Duration)

	served  uint64
	dropped uint64
}

type pendingRequest struct {
	arrived sim.Time
	demand  float64 // seconds, nominal
}

// reqRing is a growable ring buffer of pending requests: FIFO semantics
// without the per-pop slice shift and reallocation of a `queue = queue[1:]`
// slice. Capacity is retained across bursts, so the steady state allocates
// nothing.
type reqRing struct {
	buf  []pendingRequest
	head int
	n    int
}

// Len returns the number of queued requests.
func (r *reqRing) Len() int { return r.n }

// Push appends a request, growing the backing array when full.
func (r *reqRing) Push(req pendingRequest) {
	if r.n == len(r.buf) {
		grown := make([]pendingRequest, max(16, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[(r.head+i)%len(r.buf)]
		}
		r.buf = grown
		r.head = 0
	}
	r.buf[(r.head+r.n)%len(r.buf)] = req
	r.n++
}

// Pop removes and returns the oldest request; it panics on an empty ring.
func (r *reqRing) Pop() pendingRequest {
	req := r.buf[r.head]
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return req
}

// New creates a service instance bound to an engine. The latency callback
// fires once per completed (or dropped) request with its end-to-end latency;
// it stands in for the client-side measurement point of the paper's monitor.
func New(eng *sim.Engine, rng *sim.RNG, cfg Config, cores int, onLatency func(sim.Duration)) (*Instance, error) {
	s := &Instance{}
	if err := s.Init(eng, rng, cfg, cores, onLatency); err != nil {
		return nil, err
	}
	return s, nil
}

// Init (re)initialises s in place to the state New builds. The one thing it
// keeps is the pending-queue array an earlier run grew, emptied (head and
// count restart at zero), so a caller running many short episodes on one
// Instance grows the queue once instead of once per episode. Requests still
// queued from that run are discarded, not served. No event of s may still be
// pending: run Init on a fresh or reset engine. On error s is unchanged.
func (s *Instance) Init(eng *sim.Engine, rng *sim.RNG, cfg Config, cores int, onLatency func(sim.Duration)) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cores <= 0 {
		return fmt.Errorf("service %s: needs at least one core", cfg.Name)
	}
	if onLatency == nil {
		onLatency = func(sim.Duration) {}
	}
	*s = Instance{
		cfg:       cfg,
		eng:       eng,
		rng:       rng,
		cores:     cores,
		slowdown:  1.0,
		queue:     reqRing{buf: s.queue.buf},
		onLatency: onLatency,
	}
	s.recalc()
	return nil
}

// recalc refreshes the cached per-request constants after a control change.
func (s *Instance) recalc() {
	s.inflation = 1 - s.cfg.ContentionShare + s.cfg.ContentionShare*s.slowdown
	s.meanDemand = s.cfg.Demand.Mean() * s.inflation
	cap := int(s.cfg.MaxBacklog.Seconds() / s.cfg.Demand.Mean() * float64(s.workers()))
	if cap < 4 {
		cap = 4
	}
	s.qcap = cap
}

// Config returns the service configuration.
func (s *Instance) Config() Config { return s.cfg }

// Cores returns the current core allocation.
func (s *Instance) Cores() int { return s.cores }

// Served returns the number of completed requests.
func (s *Instance) Served() uint64 { return s.served }

// Dropped returns the number of requests rejected at the queue cap.
func (s *Instance) Dropped() uint64 { return s.dropped }

// QueueLen returns the number of requests waiting (not in service).
func (s *Instance) QueueLen() int { return s.queue.Len() }

// workers returns the current number of request-serving workers.
func (s *Instance) workers() int { return s.cores * s.cfg.WorkersPerCore }

// SetCores changes the core allocation. Extra cores immediately begin
// draining the queue; removed cores take effect as in-flight requests finish
// (a running request is never aborted, matching cpuset repinning semantics).
func (s *Instance) SetCores(n int) {
	if n < 1 {
		n = 1
	}
	s.cores = n
	s.recalc()
	s.drainQueue()
}

// SetSlowdown updates the contention inflation applied to the CPU-exposed
// share of subsequently started requests.
func (s *Instance) SetSlowdown(f float64) {
	if f < 1 {
		f = 1
	}
	s.slowdown = f
	s.recalc()
}

// Slowdown returns the current contention inflation factor.
func (s *Instance) Slowdown() float64 { return s.slowdown }

// Arrive submits one request to the service at the current simulation time.
func (s *Instance) Arrive() {
	req := pendingRequest{arrived: s.eng.Now(), demand: s.cfg.Demand.Sample(s.rng)}
	if s.busy < s.workers() {
		s.start(req)
		return
	}
	if s.queue.Len() >= s.qcap {
		// Queue overflow: the request is turned away. Count it as a
		// worst-case latency observation — an estimate of the sojourn it
		// would have seen — so the p99 reflects the overload instead of
		// silently dropping the slowest tail.
		s.dropped++
		est := s.estimatedSojourn()
		s.onLatency(est)
		return
	}
	s.queue.Push(req)
}

// estimatedSojourn approximates the latency a request joining the full queue
// would experience: queue length times mean inflated demand over workers.
func (s *Instance) estimatedSojourn() sim.Duration {
	perWorker := float64(s.queue.Len()+s.busy) * s.meanDemand / float64(s.workers())
	return sim.DurationOf(perWorker)
}

func (s *Instance) start(req pendingRequest) {
	s.busy++
	serviceTime := sim.DurationOf(req.demand * s.inflation)
	if serviceTime <= 0 {
		serviceTime = 1
	}
	// Completion rides the typed-event path: the instance is the handler and
	// the request's arrival instant the payload word, so the per-request hot
	// path captures no closure and allocates nothing.
	s.eng.AfterTyped(serviceTime, s, uint64(req.arrived))
}

// OnEvent implements sim.EventHandler: a request completion. The payload word
// is the request's arrival instant.
func (s *Instance) OnEvent(now sim.Time, arg uint64) {
	s.busy--
	s.served++
	s.onLatency(now.Sub(sim.Time(arg)))
	s.drainQueue()
}

func (s *Instance) drainQueue() {
	for s.busy < s.workers() && s.queue.Len() > 0 {
		s.start(s.queue.Pop())
	}
}

// Demand reports the service's current pressure on shared resources for the
// interference model: full working-set LLC pressure, and bandwidth
// proportional to allocated cores at the service's typical utilization.
// Allocated (not instantaneously busy) cores are used so the demand is a
// stable per-interval quantity, the granularity at which the contention
// model is evaluated.
func (s *Instance) Demand(tenant platform.TenantID) interference.Demand {
	return interference.Demand{
		Tenant:      tenant,
		LLCMB:       s.cfg.LLCMB,
		MemBWGBs:    s.cfg.BWPerCoreGBs * float64(s.cores),
		Sensitivity: s.cfg.Sensitivity,
	}
}
