package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Spans of one session carry
// its ID; Parent is the span that caused this one (0 for a root).
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Session string `json:"session"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"` // from the tracer's epoch
	End     int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced runs call the same code.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newID reserves a span ID, so children can name a parent that has not
// ended yet.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// record stores a finished span.
func (t *tracer) record(id, parent int64, session, name string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Session: session, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// linkByContainment gives every parentless span named in child the
// shortest span of the same session named in parents whose interval
// contains it. The service wrapper cannot see which request called it,
// but a session has one request in flight at a time, so containment
// identifies the caller.
func linkByContainment(spans []span, child, parents map[string]bool) {
	bySession := make(map[string][]int)
	for i, s := range spans {
		if parents[s.Name] {
			bySession[s.Session] = append(bySession[s.Session], i)
		}
	}
	for i := range spans {
		c := &spans[i]
		if !child[c.Name] || c.Parent != 0 {
			continue
		}
		best := -1
		for _, j := range bySession[c.Session] {
			p := spans[j]
			if p.Start <= c.Start && c.End <= p.End && (best < 0 || p.dur() < spans[best].dur()) {
				best = j
			}
		}
		if best >= 0 {
			c.Parent = spans[best].ID
		}
	}
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children. Overlapping children are
// counted once, and children reaching outside the parent are clipped.
func selfTimes(spans []span) map[int64]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered is the length of the union of the intervals clipped to
// [lo, hi].
func covered(lo, hi int64, in []span) time.Duration {
	iv := make([][2]int64, 0, len(in))
	for _, s := range in {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, v := range iv {
		if i == 0 || v[0] > curB {
			total += curB - curA
			curA, curB = v[0], v[1]
		} else if v[1] > curB {
			curB = v[1]
		}
	}
	total += curB - curA
	return time.Duration(total)
}

// writeSpans dumps spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
