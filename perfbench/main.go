// Command perfbench is the repository's benchmark. It builds nothing
// itself (perfbench/run.sh builds serve, train and this driver from the
// checkout) and drives the serving stack only from outside: it runs the
// offline phase (cmd/train), starts cmd/serve on a free loopback port,
// warms it with one pass over every distinct request, and then sends
// whole rounds of a seeded request sequence closed-loop over a single
// connection for --seconds, checking every answer.
//
//	perfbench --workload predict-mix --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the traced
// replay instead and prints the per-layer metrics. --steady N runs the
// workload N times with seeds seed..seed+N-1, each in its own process,
// and prints every metric's median, quartiles and spread beside its
// bound in BENCHMARK.json. The last line of standard output is always
// the JSON result; the exit code is 1 when any output check failed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// setupReps is how many times a run sets up from scratch; setup_s is
// the median, since one set-up varies with the garbage collector's pace.
const setupReps = 3

func main() { os.Exit(run()) }

func run() int {
	root := flag.String("root", ".", "repository root (holds .bench_build/)")
	bin := flag.String("bin", "", "directory holding the serve and train binaries (default <root>/.bench_build/bin)")
	name := flag.String("workload", "", "workload: predict-mix, execute-stream or execute-compute")
	seed := flag.Uint64("seed", 1, "seed of the request sequence")
	seconds := flag.Int("seconds", 10, "how long the timed phase runs (whole rounds)")
	trace := flag.Int("trace", 0, "1 = traced replay, printing the per-layer metrics")
	steady := flag.Int("steady", 0, "run the workload this many times (seeds seed, seed+1, ...) and print each metric's spread")
	flag.Parse()
	// The client shares the machine with serve; collecting its own small
	// garbage less often keeps it from taking CPU from serve mid-request.
	debug.SetGCPercent(400)

	e := env{
		Bin: *bin,
		Tmp: filepath.Join(*root, ".bench_build", "tmp"),
		Log: filepath.Join(*root, ".bench_build", "logs"),
	}
	if e.Bin == "" {
		e.Bin = filepath.Join(*root, ".bench_build", "bin")
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if err := os.MkdirAll(e.Tmp, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *steady > 0 {
		return steadiness(ctx, *root, w, *seed, *seconds, *trace, *steady)
	}
	var res result
	if *trace == 1 {
		res, err = traced(ctx, e, w, *seed, time.Duration(*seconds)*time.Second)
	} else {
		res, err = measure(ctx, e, w, *seed, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	printMetrics(res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// phase counts the requests of one part of a run.
type phase struct {
	Name              string
	Attempted, Failed int
}

func (p *phase) fail(err error) {
	p.Failed++
	if p.Failed <= 3 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", p.Name, err)
	}
}

func printPhases(ps []phase) {
	for _, p := range ps {
		fmt.Printf("phase %-12s attempted %7d failed %d\n", p.Name, p.Attempted, p.Failed)
	}
}

func printMetrics(r result) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-28s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
}

// deployment is a set-up system under test with its temp dir.
type deployment struct {
	*sut
	c *client
}

// tearDown stops serve and removes the temp dir; with keep, serve's log
// is copied out first.
func (d *deployment) tearDown(e env, keep bool, tag string) {
	if d == nil {
		return
	}
	if d.c != nil {
		d.c.close()
	}
	d.stop()
	if keep {
		if path := d.keepLog(e, tag); path != "" {
			fmt.Fprintln(os.Stderr, "perfbench: serve log kept in", path)
		}
	}
	os.RemoveAll(d.Dir)
}

// setUp goes from an empty temp dir to a warm server: the offline phase,
// serve start-up, and one pass over every distinct request of the
// round (compiles, profiles, leave-one-out trainings).
func setUp(ctx context.Context, e env, w *workload, round []op, chk *checker, warm *phase) (*deployment, error) {
	dir, err := os.MkdirTemp(e.Tmp, "run-")
	if err != nil {
		return nil, err
	}
	if err := offline(ctx, e, dir); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s, err := startServe(ctx, e, dir, w)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	d := &deployment{sut: s, c: newClient()}
	ps := prepare(s.Base, round)
	for i := range ps {
		warm.Attempted++
		if _, err := d.c.exchange(ctx, &ps[i], chk); err != nil {
			if ctx.Err() != nil {
				d.tearDown(e, false, "")
				return nil, ctx.Err()
			}
			warm.fail(err)
		}
	}
	return d, nil
}

// exchange sends one prepared request, decodes and checks its answer,
// and returns the latency.
func (c *client) exchange(ctx context.Context, p *prepared, chk *checker) (time.Duration, error) {
	lat, body, err := c.send(ctx, p)
	if err != nil {
		return lat, err
	}
	a, err := decode(p, body)
	if err != nil {
		return lat, err
	}
	return lat, chk.answer(&p.op, a)
}

// samples collects what the timed phase measures.
type samples struct {
	lats, roundRPS          []float64
	vsCPU, vsGPU, oracleEff []float64
}

// measure runs the untraced benchmark: setupReps times it sets up from
// scratch, runs whole rounds for a 1/setupReps share of dur, and reads
// serve's peak RSS before tearing down. Set-up time and peak RSS are the
// medians over the set-ups; latencies pool every timed request, and
// throughput is the median over rounds of a round's fixed request count
// over its wall time.
func measure(ctx context.Context, e env, w *workload, seed uint64, dur time.Duration) (result, error) {
	round := w.roundFor(seed)
	chk, err := newChecker()
	if err != nil {
		return result{}, err
	}
	warm := phase{Name: "warm"}
	timed := phase{Name: "timed"}
	var setups, rss []float64
	var s samples
	tag := fmt.Sprintf("%s-seed%d", w.Name, seed)
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		d, err := setUp(ctx, e, w, round, chk, &warm)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		n0 := len(s.roundRPS)
		err = s.timedRounds(ctx, d, round, chk, dur/setupReps, &timed)
		var mb float64
		if err == nil {
			mb, err = d.peakRSSMB()
		}
		d.tearDown(e, err != nil || warm.Failed+timed.Failed > 0, tag)
		if err != nil {
			return result{}, err
		}
		rss = append(rss, mb)
		fmt.Printf("deployment %d: set-up %.3fs, peak RSS %.1f MB, median round %.1f req/s over %d rounds\n",
			i, setups[i], mb, median(s.roundRPS[n0:]), len(s.roundRPS)-n0)
	}
	failed := warm.Failed+timed.Failed > 0

	printPhases([]phase{warm, timed})
	fmt.Printf("%d rounds of %d requests; latency samples %d\n", len(s.roundRPS), len(round), len(s.lats))
	metrics, err := fill(endToEnd, map[string]float64{
		"setup_s":           median(setups),
		"throughput_rps":    median(s.roundRPS),
		"latency_p50_ms":    percentile(s.lats, 50),
		"latency_p95_ms":    percentile(s.lats, 95),
		"serve_peak_rss_mb": median(rss),
		"speedup_vs_cpu":    geomean(s.vsCPU),
		"speedup_vs_gpu":    geomean(s.vsGPU),
		"oracle_efficiency": geomean(s.oracleEff),
	})
	return result{Correct: !failed, Attempted: timed.Attempted, Failed: timed.Failed, Metrics: metrics}, err
}

// timedRounds sends whole rounds to d until dur has passed, checking
// every answer.
func (s *samples) timedRounds(ctx context.Context, d *deployment, round []op, chk *checker, dur time.Duration, timed *phase) error {
	ps := prepare(d.Base, round)
	t0 := time.Now()
	for time.Since(t0) < dur {
		r0 := time.Now()
		for i := range ps {
			p := &ps[i]
			timed.Attempted++
			lat, body, err := d.c.send(ctx, p)
			if err != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				timed.fail(err)
				continue
			}
			s.lats = append(s.lats, float64(lat)/1e6)
			a, err := decode(p, body)
			if err == nil {
				err = chk.answer(&p.op, a)
			}
			if err != nil {
				timed.fail(err)
				continue
			}
			for _, pr := range a.Preds {
				served := pr.PredictedTime
				if a.Exec != nil {
					served = a.Exec.Makespan
				}
				s.vsCPU = append(s.vsCPU, pr.CPUOnlyTime/served)
				s.vsGPU = append(s.vsGPU, pr.GPUOnlyTime/served)
				s.oracleEff = append(s.oracleEff, pr.OracleTime/served)
			}
		}
		s.roundRPS = append(s.roundRPS, float64(len(ps))/time.Since(r0).Seconds())
	}
	return nil
}
