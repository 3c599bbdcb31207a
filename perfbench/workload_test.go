package main

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
)

// multiset renders a round order-free, so rounds of different seeds can
// be compared as the same work.
func multiset(round []op) []string {
	var out []string
	for _, o := range round {
		pts := make([]string, len(o.Points))
		for i, p := range o.Points {
			pts[i] = fmt.Sprint(p)
		}
		sort.Strings(pts)
		out = append(out, fmt.Sprint(o.Kind, o.Platform, pts))
	}
	sort.Strings(out)
	return out
}

func TestRoundsAreSeededAndSameWork(t *testing.T) {
	for _, w := range workloads {
		a, b, c := w.roundFor(1), w.roundFor(1), w.roundFor(2)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different rounds", w.Name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same order", w.Name)
		}
		if w.Name != "predict-mix" && !reflect.DeepEqual(multiset(a), multiset(c)) {
			t.Errorf("%s: rounds of different seeds hold different requests", w.Name)
		}
	}
}

func TestPredictMixLayout(t *testing.T) {
	w, err := workloadByName("predict-mix")
	if err != nil {
		t.Fatal(err)
	}
	round := w.roundFor(7)
	cells := len(w.cells())
	if len(round) != 3*cells {
		t.Fatalf("%d requests, want %d", len(round), 3*cells)
	}
	singles := map[string]int{}
	inBatches := map[string]int{}
	for i, o := range round {
		want := opPredict
		if i%3 == 2 {
			want = opBatch
		}
		if o.Kind != want {
			t.Fatalf("request %d is %v, want %v", i, o.Kind, want)
		}
		for _, p := range o.Points {
			k := fmt.Sprint(o.Platform, p)
			if o.Kind == opBatch {
				inBatches[k]++
			} else {
				singles[k]++
			}
		}
		if o.Kind == opBatch && len(o.Points) != batchSize {
			t.Fatalf("batch of %d points", len(o.Points))
		}
	}
	if len(singles) != len(platforms)*cells || len(inBatches) != len(platforms)*cells {
		t.Fatalf("%d single cells, %d batched cells, want %d", len(singles), len(inBatches), len(platforms)*cells)
	}
	for k, n := range singles {
		if n != 1 || inBatches[k] != batchSize/2 {
			t.Errorf("%s: %d single requests and %d batched points, want 1 and %d", k, n, inBatches[k], batchSize/2)
		}
	}
}
