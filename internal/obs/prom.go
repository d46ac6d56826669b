package obs

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
)

// ftoa renders a float the same way everywhere in the package: shortest
// round-trip form, so outputs are deterministic and diff-friendly.
func ftoa(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteMetricsProm writes the registry's final values in the Prometheus text
// exposition format (# HELP / # TYPE comments, histogram le-buckets with
// _sum and _count). Instruments appear in registration order and floats in
// shortest round-trip form, so equal runs produce identical bytes.
func WriteMetricsProm(w io.Writer, r *Registry) error {
	bw := bufio.NewWriter(w)
	for _, m := range r.order {
		in := m.base()
		fmt.Fprintf(bw, "# HELP %s %s\n", in.name, in.help)
		switch m := m.(type) {
		case *Counter:
			fmt.Fprintf(bw, "# TYPE %s counter\n", in.name)
			fmt.Fprintf(bw, "%s %s\n", in.id(), ftoa(m.v))
		case *Gauge:
			fmt.Fprintf(bw, "# TYPE %s gauge\n", in.name)
			fmt.Fprintf(bw, "%s %s\n", in.id(), ftoa(m.v))
		case *Histogram:
			fmt.Fprintf(bw, "# TYPE %s histogram\n", in.name)
			cum := uint64(0)
			for i, ub := range m.bounds {
				cum += m.counts[i]
				fmt.Fprintf(bw, "%s %d\n", bucketID(in, ftoa(ub)), cum)
			}
			cum += m.counts[len(m.bounds)]
			fmt.Fprintf(bw, "%s %d\n", bucketID(in, "+Inf"), cum)
			fmt.Fprintf(bw, "%s %s\n", suffixedID(in, "_sum"), ftoa(m.sum))
			fmt.Fprintf(bw, "%s %d\n", suffixedID(in, "_count"), m.n)
		}
	}
	return bw.Flush()
}

// bucketID renders name_bucket{labels...,le="ub"}.
func bucketID(m *instrument, ub string) string {
	s := m.name + "_bucket{"
	for _, l := range m.labels {
		s += fmt.Sprintf("%s=%q,", l.Key, l.Value)
	}
	return s + fmt.Sprintf("le=%q}", ub)
}

// suffixedID renders name<suffix>{labels...} for _sum/_count series.
func suffixedID(m *instrument, suffix string) string {
	base := instrument{name: m.name + suffix, labels: m.labels}
	return base.id()
}

// WriteMetricsCSV writes the window-boundary snapshots as a time-indexed CSV
// table: a t_seconds column, then one column per counter/gauge (by
// Prometheus identity) and two per histogram (identity_count, identity_sum),
// in registration order. One row per Snapshot call. Label-bearing identities
// contain commas and quotes, so cells go through a real CSV encoder.
func WriteMetricsCSV(w io.Writer, r *Registry) error {
	cw := csv.NewWriter(w)
	header := []string{"t_seconds"}
	for _, m := range r.order {
		id := m.base().id()
		if _, ok := m.(*Histogram); ok {
			header = append(header, id+"_count", id+"_sum")
		} else {
			header = append(header, id)
		}
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, len(header))
	for i, t := range r.snapTimes {
		row[0] = strconv.FormatFloat(t, 'f', -1, 64)
		for j, v := range r.snapRows[i] {
			row[j+1] = strconv.FormatFloat(v, 'f', -1, 64)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
