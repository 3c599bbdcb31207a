package main

import "fmt"

// metricSpec names one reported metric. The end-to-end and per-layer
// tables below are the benchmark's contract: BENCHMARK.json lists the
// same names, units and directions (checked by TestMetricNamesMatchSpec),
// and every run prints exactly one of the two sets.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
}

// endToEnd is what a user of the server sees; printed with --trace 0.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"throughput_rps", "req/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p95_ms", "ms", "lower"},
	{"serve_peak_rss_mb", "MB", "lower"},
	{"speedup_vs_cpu", "ratio", "higher"},
	{"speedup_vs_gpu", "ratio", "higher"},
	{"oracle_efficiency", "ratio", "higher"},
}

// perLayer comes from the traced replay; printed with --trace 1. A layer
// that a workload bypasses reports 0 on it (see README's layer table).
var perLayer = []metricSpec{
	{"serve.http_us", "us", "lower"},
	{"wire.encode_ns_per_point", "ns", "lower"},
	{"wire.decode_ns_per_point", "ns", "lower"},
	{"fleet.route_ns", "ns", "lower"},
	{"fleet.admit_wait_ns", "ns", "lower"},
	{"engine.predict_us", "us", "lower"},
	{"engine.execute_ms", "ms", "lower"},
	{"engine.cold_work", "count", "lower"},
	{"engine.observations_dropped", "count", "lower"},
	{"ml.infer_us", "us", "lower"},
	{"ml.train_ms", "ms", "lower"},
	{"runtime.price_us", "us", "lower"},
	{"runtime.execute_ms", "ms", "lower"},
	{"runtime.price_all_us", "us", "lower"},
	{"exec.run_ms.vec", "ms", "lower"},
	{"exec.run_ms.vm", "ms", "lower"},
	{"exec.vec_divergences", "count", "lower"},
	{"exec.vec_reconverges", "count", "higher"},
	{"exec.vec_scalar_bails", "count", "lower"},
	{"bench.instance_ms", "ms", "lower"},
	{"bench.verify_ms", "ms", "lower"},
	{"obs.append_us", "us", "lower"},
	{"obs.bytes_per_observation", "B", "lower"},
	{"harness.generate_s", "s", "lower"},
	{"core.compile_ms", "ms", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill builds the metrics object for specs from values, which must name
// exactly the metrics in specs.
func fill(specs []metricSpec, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(specs))
	for _, s := range specs {
		v, ok := values[s.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.Name)
		}
		out[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	if len(values) != len(out) {
		return nil, fmt.Errorf("%d metrics measured, %d specified", len(values), len(out))
	}
	return out, nil
}
