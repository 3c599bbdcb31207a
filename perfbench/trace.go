package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer during the traced replay. Spans of
// one request share Req; Parent is the ID of the enclosing span (0 for a
// root). Start and End are nanoseconds since the tracer started.
type span struct {
	ID, Parent, Req int
	Name            string
	Start, End      int64
}

// tracer keeps spans in memory until the replay ends. It is used from a
// single goroutine.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID. On a nil tracer (an untraced
// replay) begin, end and do only run the calls.
func (t *tracer) begin(name string, req, parent int) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: int64(time.Since(t.t0))})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id-1].End = int64(time.Since(t.t0))
	}
}

// do records fn as one span.
func (t *tracer) do(name string, req, parent int, fn func()) {
	id := t.begin(name, req, parent)
	fn()
	t.end(id)
}

// layerTime is the summed self time of every span with one name.
type layerTime struct {
	SelfNs int64
	Count  int
}

// selfTimes sums, per span name, each span's duration minus the part of
// that interval its children cover (overlapping children count once,
// and a child's time outside its parent does not count).
func selfTimes(spans []span) map[string]layerTime {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]layerTime)
	for _, s := range spans {
		covered := int64(0)
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		cur := s.Start // end of the covered prefix so far
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		lt := out[s.Name]
		lt.SelfNs += s.End - s.Start - covered
		lt.Count++
		out[s.Name] = lt
	}
	return out
}

// reqTime sums, per request, the full duration of spans named name.
func reqTime(spans []span, name string) map[int]int64 {
	out := make(map[int]int64)
	for _, s := range spans {
		if s.Name == name {
			out[s.Req] += s.End - s.Start
		}
	}
	return out
}
