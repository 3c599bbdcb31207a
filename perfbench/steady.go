package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	osexec "os/exec"
	"path/filepath"
	"strconv"
)

// benchmarkFile is the part of BENCHMARK.json the steadiness mode reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadiness runs the workload n times, each in a fresh process of this
// binary with its own seed, and prints per metric the median, the
// quartiles, and the spread (Q3-Q1 over the median) beside the metric's
// bound in BENCHMARK.json, so the bounds can be set from measurement and
// re-checked. It returns 1 when a run fails or a spread other than
// setup_s's exceeds a third of its bound.
func steadiness(ctx context.Context, root string, w *workload, seed uint64, seconds, trace, n int) int {
	bounds := map[string]float64{}
	if data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json")); err == nil {
		var bf benchmarkFile
		if err := json.Unmarshal(data, &bf); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: BENCHMARK.json:", err)
			return 1
		}
		for _, m := range bf.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	values := map[string][]float64{}
	var units = map[string]string{}
	for i := 0; i < n; i++ {
		s := seed + uint64(i)
		cmd := osexec.CommandContext(ctx, self, os.Args[1:]...)
		cmd.Args = append(cmd.Args, "-steady", "0", "-seed", strconv.FormatUint(s, 10))
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: run with seed %d: %v\n%s", s, err, out.String())
			return 1
		}
		lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
		var r result
		if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: run with seed %d: result line: %v\n", s, err)
			return 1
		}
		fmt.Printf("seed %d: attempted %d failed %d", s, r.Attempted, r.Failed)
		for _, sp := range endToEnd[:5] {
			if m, ok := r.Metrics[sp.Name]; ok {
				fmt.Printf(" %s=%.4g", sp.Name, m.Value)
			}
		}
		fmt.Println()
		for name, m := range r.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	specs := endToEnd
	if trace == 1 {
		specs = perLayer
	}
	status := 0
	fmt.Printf("%s: %d runs of %ds\n", w.Name, n, seconds)
	fmt.Printf("%-28s %14s %14s %14s %8s %8s\n", "metric", "q1", "median", "q3", "spread", "bound")
	for _, sp := range specs {
		q1, med, q3 := quartiles(values[sp.Name])
		spread := math.Abs(q3-q1) / math.Abs(med)
		if med == 0 {
			spread = 0
		}
		bound, ok := bounds[sp.Name]
		mark := ""
		if ok && sp.Name != "setup_s" && spread > bound/3 {
			mark, status = "  > bound/3", 1
		}
		bs := "-"
		if ok {
			bs = fmt.Sprintf("%.3f", bound)
		}
		fmt.Printf("%-28s %14.6g %14.6g %14.6g %8.4f %8s %s%s\n", sp.Name, q1, med, q3, spread, bs, units[sp.Name], mark)
	}
	return status
}
