package experiments

import (
	"bytes"
	"fmt"

	"github.com/approx-sched/pliant/internal/export"
	"github.com/approx-sched/pliant/internal/sched"
	"github.com/approx-sched/pliant/internal/serve"
)

// ShadowResult summarizes the serving-layer study: one arrival feed fanned
// out to several candidate policies in lockstep (the daemon's shadow-replay
// session, driven without HTTP), per-window disagreement between the
// candidates and the baseline, and the layer's central property — a session
// replayed through the serving machinery exports byte-identical results to
// batch sched.Run on the same config.
type ShadowResult struct {
	HorizonSec float64
	Windows    int

	// Rows hold one candidate policy each (index 0 is the baseline).
	Rows []ShadowRow

	// ServeParity reports whether the baseline's serve-replayed result JSON
	// matched the batch sched.Run export byte for byte.
	ServeParity bool
}

// ShadowRow is one policy's end-of-run standing plus its disagreement with
// the baseline across the windows.
type ShadowRow struct {
	Policy      string
	QoSMetFrac  float64
	Completed   int
	Pending     int
	DiffWindows int // windows where this policy hosted ≥1 job elsewhere
	MaxDiff     int // peak same-window placement disagreements
}

// Render formats the shadow-replay summary.
func (r *ShadowResult) Render() string {
	s := fmt.Sprintf("shadow replay: %d candidate policies over one %.0fs feed (%d windows)\n",
		len(r.Rows), r.HorizonSec, r.Windows)
	s += fmt.Sprintf("  %-18s %9s %10s %9s %13s %9s\n",
		"policy", "QoS met", "completed", "pending", "diff windows", "max diff")
	for i, row := range r.Rows {
		diffs := fmt.Sprintf("%13d %9d", row.DiffWindows, row.MaxDiff)
		if i == 0 {
			diffs = fmt.Sprintf("%13s %9s", "baseline", "—")
		}
		s += fmt.Sprintf("  %-18s %8.0f%% %10d %9d %s\n",
			row.Policy, row.QoSMetFrac*100, row.Completed, row.Pending, diffs)
	}
	s += fmt.Sprintf("  serve replay byte-identical to batch run: %v\n", r.ServeParity)
	return s
}

// ShadowServe runs the serving-layer study: a three-policy shadow session
// over a diurnal day, then the baseline policy again under batch sched.Run
// to pin daemon/batch export parity.
func ShadowServe(p Profile) (*ShadowResult, error) {
	sp := serve.Spec{
		Seed:       p.seedFor("shadow"),
		Policies:   []string{"telemetry", "first-fit", "spread"},
		HorizonSec: 120,
		EpochSec:   12,
		TimeScale:  p.TimeScale,
		Shards:     p.parallelism(),
	}
	out, err := serve.ShadowReplay(sp)
	if err != nil {
		return nil, err
	}

	res := &ShadowResult{HorizonSec: 120, Windows: len(out.Verdicts)}
	for i, name := range out.Policies {
		row := ShadowRow{
			Policy:     name,
			QoSMetFrac: out.Results[i].QoSMetFrac,
			Completed:  out.Results[i].Completed,
			Pending:    out.Results[i].Pending,
		}
		for _, v := range out.Verdicts {
			d := v.Policies[i].DiffPlacements
			if d > 0 {
				row.DiffWindows++
			}
			if d > row.MaxDiff {
				row.MaxDiff = d
			}
		}
		res.Rows = append(res.Rows, row)
	}

	// Parity: the baseline policy once more as a plain batch run.
	resolved, err := sp.Resolve()
	if err != nil {
		return nil, err
	}
	cfg := resolved.Cfg
	cfg.Policy = resolved.Policies[0]
	batch, err := sched.Run(cfg)
	if err != nil {
		return nil, err
	}
	var servedJSON, batchJSON bytes.Buffer
	if err := export.WriteSchedResultJSON(&servedJSON, out.Results[0]); err != nil {
		return nil, err
	}
	if err := export.WriteSchedResultJSON(&batchJSON, batch); err != nil {
		return nil, err
	}
	res.ServeParity = bytes.Equal(servedJSON.Bytes(), batchJSON.Bytes())
	return res, nil
}
