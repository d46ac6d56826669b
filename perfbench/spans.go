package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the call. Spans of one scheduling window share Group; Parent is the id of
// the enclosing span (0 for a root).
type span struct {
	ID     int64            `json:"id"`
	Parent int64            `json:"parent"`
	Group  int64            `json:"group,omitempty"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"` // since the log was created
	End    int64            `json:"end_ns"`
	Attrs  map[string]int64 `json:"attrs,omitempty"`
}

// spanLog keeps a traced run's spans in memory until the run ends. A nil log
// records nothing, so untraced runs pay only a nil test per call site.
type spanLog struct {
	origin time.Time

	mu    sync.Mutex
	next  int64
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// id reserves a span id, so children can name a parent that ends later.
func (l *spanLog) id() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	return l.next
}

// add records a finished span under a reserved id (0 reserves one) and
// returns the id.
func (l *spanLog) add(id, parent, group int64, name string, start, end time.Time, attrs map[string]int64) int64 {
	if l == nil {
		return 0
	}
	if id == 0 {
		id = l.id()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Group: group, Name: name,
		Start: start.Sub(l.origin).Nanoseconds(), End: end.Sub(l.origin).Nanoseconds(),
		Attrs: attrs,
	})
	return id
}

func (l *spanLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// selfTimes sums each span name's self time: its duration minus the part of
// it its direct children cover.
func (l *spanLog) selfTimes() map[string]time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	child := map[int64]int64{}
	for _, s := range l.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]time.Duration{}
	for _, s := range l.spans {
		self[s.Name] += time.Duration(s.End - s.Start - child[s.ID])
	}
	return self
}

// write stores the spans, ordered by start, with the host fingerprint.
func (l *spanLog) write(path string, fp host) error {
	l.mu.Lock()
	spans := append([]span(nil), l.spans...)
	l.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	data, err := json.Marshal(struct {
		Host  host   `json:"host"`
		Spans []span `json:"spans"`
	}{fp, spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
