// Package monitor implements Pliant's lightweight performance monitor
// (Sec. 4.1): a client-side tracing runtime that samples the end-to-end
// latency of the interactive service, computes per-interval tail statistics,
// and reports QoS violations and latency slack to the controller. Sampling is
// adaptive — the sampling stride adjusts so the monitor records roughly a
// target number of samples per interval regardless of offered load, and it
// densifies when the tail approaches the QoS boundary, where decision quality
// matters most.
package monitor

import (
	"fmt"

	"github.com/approx-sched/pliant/internal/sim"
	"github.com/approx-sched/pliant/internal/stats"
)

// Report is the monitor's per-interval output to the controller.
type Report struct {
	At       sim.Time     // interval end
	Interval sim.Duration // interval length
	Samples  uint64       // latency observations recorded this interval
	Seen     uint64       // requests completed this interval (sampled or not)
	Mean     sim.Duration
	P99      sim.Duration
	QoS      sim.Duration

	// Violation is true when the interval's p99 exceeded the QoS target.
	Violation bool

	// Slack is (QoS - p99)/QoS: positive headroom below the target,
	// negative when violating. The controller's revert condition is
	// Slack > 10% (paper Sec. 4.3).
	Slack float64

	// Util, Watts, and Joules are node energy telemetry for this interval:
	// utilization of the colocation socket, mean power draw, and energy
	// dissipated. The monitor itself leaves them zero — the episode runner
	// (internal/colocate) fills them when an energy model is attached, so
	// joules ride the same OnReport hook schedulers already consume latency
	// through.
	Util   float64
	Watts  float64
	Joules float64
}

// Config tunes a Monitor.
type Config struct {
	// QoS is the tail-latency target of the monitored service.
	QoS sim.Duration

	// Interval is the decision interval at which reports fire (paper
	// default: 1 s).
	Interval sim.Duration

	// TargetSamples is the number of latency observations the adaptive
	// sampler aims to record per interval.
	TargetSamples uint64

	// DenseFactor multiplies TargetSamples when the previous interval's
	// p99 was within ±25% of QoS — near the boundary the monitor samples
	// more densely.
	DenseFactor uint64
}

// DefaultConfig returns the paper's monitoring configuration: 1-second
// decision interval, ~2000 samples per interval, 4× densification near the
// QoS boundary.
func DefaultConfig(qos sim.Duration) Config {
	return Config{
		QoS:           qos,
		Interval:      sim.Second,
		TargetSamples: 2000,
		DenseFactor:   4,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.QoS <= 0:
		return fmt.Errorf("monitor: QoS must be positive")
	case c.Interval <= 0:
		return fmt.Errorf("monitor: interval must be positive")
	case c.TargetSamples == 0:
		return fmt.Errorf("monitor: target samples must be positive")
	case c.DenseFactor == 0:
		return fmt.Errorf("monitor: dense factor must be positive")
	}
	return nil
}

// Monitor consumes end-to-end latencies and emits per-interval reports.
type Monitor struct {
	cfg Config
	eng *sim.Engine

	hist   *stats.Histogram
	stride uint64 // record every stride-th completion
	left   uint64 // completions until the next sample (countdown from stride)
	seen   uint64 // completions this interval
	taken  uint64 // samples this interval

	onReport func(Report)
	ticker   sim.Ticker
	tickFn   func(sim.Time) // m.tick, made once per Monitor
	reports  uint64
}

// New creates a monitor and starts its interval ticker. The onReport
// callback fires at the end of every interval.
func New(eng *sim.Engine, cfg Config, onReport func(Report)) (*Monitor, error) {
	m := &Monitor{}
	if err := m.Init(eng, cfg, onReport); err != nil {
		return nil, err
	}
	return m, nil
}

// Init (re)initialises m in place to the state New builds and starts its
// interval ticker. It keeps the latency histogram an earlier run used,
// cleared, so an episode runner recycling one Monitor allocates none. No
// tick of m may still be pending: run Init on a fresh or reset engine. On
// error m is unchanged.
func (m *Monitor) Init(eng *sim.Engine, cfg Config, onReport func(Report)) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if eng == nil {
		return fmt.Errorf("monitor: nil engine")
	}
	if onReport == nil {
		onReport = func(Report) {}
	}
	hist := m.hist
	if hist == nil {
		hist = stats.NewLatencyHistogram()
	} else {
		hist.Reset()
	}
	tickFn := m.tickFn
	if tickFn == nil {
		tickFn = m.tick
	}
	*m = Monitor{
		cfg:      cfg,
		eng:      eng,
		hist:     hist,
		stride:   1,
		left:     1,
		onReport: onReport,
		tickFn:   tickFn,
	}
	m.ticker.Start(eng, cfg.Interval, tickFn)
	return nil
}

// Observe records the completion of one request with its end-to-end latency.
// It must be cheap: it is called for every completed request, so the stride
// is a countdown rather than a modulo.
func (m *Monitor) Observe(latency sim.Duration) {
	m.seen++
	m.left--
	if m.left > 0 {
		return
	}
	m.left = m.stride
	m.taken++
	m.hist.Record(float64(latency))
}

// Stride returns the current sampling stride (1 = every request).
func (m *Monitor) Stride() uint64 { return m.stride }

// Reports returns how many interval reports have fired.
func (m *Monitor) Reports() uint64 { return m.reports }

// Stop halts the interval ticker.
func (m *Monitor) Stop() { m.ticker.Stop() }

func (m *Monitor) tick(now sim.Time) {
	p99 := sim.Duration(m.hist.P99())
	mean := sim.Duration(m.hist.Mean())
	r := Report{
		At:       now,
		Interval: m.cfg.Interval,
		Samples:  m.taken,
		Seen:     m.seen,
		Mean:     mean,
		P99:      p99,
		QoS:      m.cfg.QoS,
	}
	if m.taken > 0 {
		r.Violation = p99 > m.cfg.QoS
		r.Slack = float64(m.cfg.QoS-p99) / float64(m.cfg.QoS)
	} else {
		// No traffic completed: treat as full slack, not a violation.
		r.Slack = 1
	}
	m.reports++

	m.retarget(p99)
	m.hist.Reset()
	m.seen = 0
	m.taken = 0

	m.onReport(r)
}

// retarget adapts the sampling stride for the next interval from this
// interval's completion volume, densifying near the QoS boundary.
func (m *Monitor) retarget(p99 sim.Duration) {
	target := m.cfg.TargetSamples
	if m.nearBoundary(p99) {
		target *= m.cfg.DenseFactor
	}
	if m.seen == 0 || m.seen <= target {
		m.stride = 1
	} else {
		m.stride = m.seen / target
		if m.stride < 1 {
			m.stride = 1
		}
	}
	// A fresh interval starts counting from the new stride, exactly as the
	// historical seen%stride==0 rule did after seen reset to zero.
	m.left = m.stride
}

// nearBoundary reports whether the p99 is within ±25% of the QoS target.
func (m *Monitor) nearBoundary(p99 sim.Duration) bool {
	if p99 == 0 {
		return false
	}
	lo := m.cfg.QoS - m.cfg.QoS/4
	hi := m.cfg.QoS + m.cfg.QoS/4
	return p99 >= lo && p99 <= hi
}
