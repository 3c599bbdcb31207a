package main

import "testing"

func TestSelfTimesSubtractChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Req: 1, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Req: 1, Name: "route", Start: 5, End: 15},
		{ID: 3, Parent: 1, Req: 1, Name: "engine", Start: 20, End: 90},
		{ID: 4, Parent: 3, Req: 1, Name: "model", Start: 30, End: 50},
		{ID: 5, Parent: 3, Req: 1, Name: "model", Start: 60, End: 70},
		{ID: 6, Req: 2, Name: "request", Start: 100, End: 130},
	}
	got := selfTimes(spans)
	want := map[string]layerTime{
		"request": {SelfNs: (100 - 10 - 70) + 30, Count: 2},
		"route":   {SelfNs: 10, Count: 1},
		"engine":  {SelfNs: 70 - 20 - 10, Count: 1},
		"model":   {SelfNs: 30, Count: 2},
	}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: got %+v, want %+v", name, got[name], w)
		}
	}
}

func TestSelfTimesOverlappingAndOverhangingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 10, End: 50},
		{ID: 2, Parent: 1, Name: "a", Start: 0, End: 20},  // starts before the parent
		{ID: 3, Parent: 1, Name: "b", Start: 15, End: 30}, // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 45, End: 60}, // ends after the parent
	}
	// Covered: [10,30) and [45,50) = 25 of the parent's 40.
	if got := selfTimes(spans)["parent"].SelfNs; got != 15 {
		t.Errorf("parent self = %d, want 15", got)
	}
}

func TestReqTimeAndNilTracer(t *testing.T) {
	var nilTr *tracer
	ran := false
	nilTr.do("x", 1, 0, func() { ran = true })
	if !ran {
		t.Fatal("a nil tracer must still run the call")
	}
	tr := newTracer()
	root := tr.begin("request", 7, 0)
	tr.do("engine.predict", 7, root, func() {})
	tr.do("engine.predict", 7, root, func() {})
	tr.end(root)
	if n := len(tr.spans); n != 3 {
		t.Fatalf("%d spans, want 3", n)
	}
	for _, s := range tr.spans {
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	rt := reqTime(tr.spans, "engine.predict")
	if rt[7] != tr.spans[1].End-tr.spans[1].Start+tr.spans[2].End-tr.spans[2].Start {
		t.Errorf("reqTime = %v", rt)
	}
}
