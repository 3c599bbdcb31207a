package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// spec mirrors BENCHMARK.json at the repository root.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range raw {
		keys = append(keys, k)
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has keys %v, want exactly command, paths, run_seconds, workloads, end_to_end, per_layer", keys)
	}
	var s spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestMetricNamesMatchSpec checks that the metrics the command prints
// are exactly those BENCHMARK.json lists, with the same units and
// directions.
func TestMetricNamesMatchSpec(t *testing.T) {
	s := loadSpec(t)
	var e2e, layers []metricSpec
	for _, m := range s.EndToEnd {
		e2e = append(e2e, metricSpec{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range s.PerLayer {
		layers = append(layers, metricSpec{m.Name, m.Unit, m.Better})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json:\n%v\nprinted with --trace 0:\n%v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json:\n%v\nprinted with --trace 1:\n%v", layers, perLayer)
	}
	// fill, which builds every printed result, accepts exactly these names.
	for _, specs := range [][]metricSpec{endToEnd, perLayer} {
		values := map[string]float64{}
		for _, m := range specs {
			values[m.Name] = 1
		}
		if _, err := fill(specs, values); err != nil {
			t.Error(err)
		}
		values["extra"] = 1
		if _, err := fill(specs, values); err == nil {
			t.Error("fill accepted a metric outside the spec")
		}
	}
}

func TestSpecWorkloadsAndLimits(t *testing.T) {
	s := loadSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.Name)
	}
	if !reflect.DeepEqual(names, ours) {
		t.Errorf("workloads in BENCHMARK.json %v, in the benchmark %v", names, ours)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("malformed metric %+v", m)
		}
		if seen[m.Name] {
			t.Errorf("metric %s listed twice", m.Name)
		}
		seen[m.Name] = true
	}
	if !seen["setup_s"] {
		t.Error("setup_s missing")
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		t.Errorf("run_seconds %d", s.RunSeconds)
	}
}
