package main

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/bench"
)

// opKind is the endpoint and codec one request uses.
type opKind int

const (
	opPredict opKind = iota // GET /predict, JSON answer, one point
	opBatch                 // POST /predict/batch, wire frames, batchSize points
	opExecute               // POST /execute, JSON answer, one point
)

func (k opKind) String() string {
	return [...]string{"predict", "batch", "execute"}[k]
}

// point is one (program, size) cell; every request asks for the
// leave-one-program-out model, the paper's unseen-program scenario.
type point struct {
	Program string
	Size    int
}

// op is one request of a workload's round.
type op struct {
	Kind     opKind
	Platform string
	Points   []point
}

// workload is a named traffic mix. A round is the fixed sequence of
// distinct requests generated from the seed; the warm pass sends one
// round and the timed phase sends whole rounds.
type workload struct {
	Name     string
	Programs []string
	Sizes    []int
	// Obs turns on serve's observation log (-obs).
	Obs   bool
	round func(w *workload, rng *rand.Rand) []op
}

// platforms are the simulated machines every workload is served on.
var platforms = []string{"mc1", "mc2"}

// batchSize is the point count of one /predict/batch request.
const batchSize = 64

// maxSize is the largest size index the offline phase profiles (S3);
// every workload stays within it.
const maxSize = 3

var streamCells = []string{"vecadd", "saxpy", "matvec", "transpose", "spmv", "pathfinder"}

var computeCells = []string{
	"mandelbrot", "kmeans", "bfs", "histogram", // scalar VM tier
	"dotprod", "reduction", "prefixsum", // barriers, lockstep
	"matmul", "nbody", "md", "blackscholes", // vector tier with divergence
}

func allPrograms() []string {
	var out []string
	for _, p := range bench.All() {
		out = append(out, p.Name)
	}
	return out
}

var workloads = []*workload{
	{
		Name:     "predict-mix",
		Programs: allPrograms(),
		Sizes:    []int{0, 1, 2, 3},
		round:    predictMixRound,
	},
	{
		Name:     "execute-stream",
		Programs: streamCells,
		Sizes:    []int{2, 3},
		Obs:      true,
		round:    executeRound,
	},
	{
		Name:     "execute-compute",
		Programs: computeCells,
		Sizes:    []int{1, 2},
		Obs:      true,
		round:    executeRound,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// cells lists every (program, size) point of the workload.
func (w *workload) cells() []point {
	var out []point
	for _, p := range w.Programs {
		for _, s := range w.Sizes {
			out = append(out, point{p, s})
		}
	}
	return out
}

// predictMixRound sends every (platform, program, size) point once as a
// JSON /predict, and batchesPerRound wire batches whose points cycle
// through each platform's shuffled points. Two JSON requests go out per
// batch, so the latency median falls among the JSON requests and p95
// among the batches, never on the boundary between the two.
func predictMixRound(w *workload, rng *rand.Rand) []op {
	var singles, batches []op
	for _, plat := range platforms {
		pts := w.cells()
		for _, p := range pts {
			singles = append(singles, op{Kind: opPredict, Platform: plat, Points: []point{p}})
		}
		// len(pts)/2 batches of 64 points: 32 passes over the points,
		// each pass in a fresh order.
		var stream []point
		for len(stream) < len(pts)/2*batchSize {
			rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
			stream = append(stream, pts...)
		}
		for i := 0; i+batchSize <= len(stream); i += batchSize {
			batches = append(batches, op{Kind: opBatch, Platform: plat, Points: stream[i : i+batchSize]})
		}
	}
	rng.Shuffle(len(singles), func(i, j int) { singles[i], singles[j] = singles[j], singles[i] })
	rng.Shuffle(len(batches), func(i, j int) { batches[i], batches[j] = batches[j], batches[i] })
	var out []op
	for i, b := range batches {
		out = append(out, singles[2*i], singles[2*i+1], b)
	}
	return out
}

// executeRound executes every (platform, program, size) cell of w once,
// in a seeded order.
func executeRound(w *workload, rng *rand.Rand) []op {
	var out []op
	for _, plat := range platforms {
		for _, p := range w.cells() {
			out = append(out, op{Kind: opExecute, Platform: plat, Points: []point{p}})
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// roundFor generates the workload's round for seed.
func (w *workload) roundFor(seed uint64) []op {
	return w.round(w, rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15)))
}
