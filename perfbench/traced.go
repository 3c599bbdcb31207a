package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/features"
	"repro/internal/fleet"
	"repro/internal/harness"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/runtime"
	"repro/internal/wire"
)

// traced is the per-layer run. It sets up and warms serve as the
// untraced run does, sends one round over HTTP (per-request latency and
// serve's cold-work counters around it), then replays the same round in
// process through the same layers serve uses (fleet router, engine,
// wire codec), alternating untraced and traced replays for dur. Layers
// whose calls sit inside another public function are then timed alone,
// on the same inputs, into the last trace.
func traced(ctx context.Context, e env, w *workload, seed uint64, dur time.Duration) (res result, err error) {
	round := w.roundFor(seed)
	chk, err := newChecker()
	if err != nil {
		return result{}, err
	}
	warm := phase{Name: "warm"}
	httpPass := phase{Name: "http"}
	replayed := phase{Name: "replay"}
	isolated := phase{Name: "isolated"}
	failed := true
	tag := fmt.Sprintf("%s-seed%d-trace", w.Name, seed)
	d, err := setUp(ctx, e, w, round, chk, &warm)
	if err != nil {
		return result{}, err
	}
	defer func() { d.tearDown(e, failed, tag) }()

	before, err := d.counters(d.c)
	if err != nil {
		return result{}, err
	}
	ps := prepare(d.Base, round)
	httpUs := make([]float64, len(ps))
	for i := range ps {
		httpPass.Attempted++
		lat, err := d.c.exchange(ctx, &ps[i], chk)
		if err != nil {
			if ctx.Err() != nil {
				return result{}, ctx.Err()
			}
			httpPass.fail(err)
			httpUs[i] = math.NaN()
			continue
		}
		httpUs[i] = float64(lat) / 1e3
	}
	after, err := d.counters(d.c)
	if err != nil {
		return result{}, err
	}

	rp, err := newReplay(e, d.Dir, w, round)
	if err != nil {
		return result{}, err
	}
	defer rp.close()
	rp.run(ctx, round, nil, chk, &replayed) // warm the in-process engines
	var plain, withSpans []float64
	var tr *tracer
	for t0 := time.Now(); tr == nil || time.Since(t0) < dur; {
		t := time.Now()
		rp.run(ctx, round, nil, chk, &replayed)
		plain = append(plain, time.Since(t).Seconds())
		tr = newTracer()
		t = time.Now()
		rp.run(ctx, round, tr, chk, &replayed)
		withSpans = append(withSpans, time.Since(t).Seconds())
	}
	engineNs := reqTime(tr.spans, "engine.predict")
	for req, ns := range reqTime(tr.spans, "engine.execute") {
		engineNs[req] += ns
	}
	var httpSelf []float64
	for i, us := range httpUs {
		if !math.IsNaN(us) {
			httpSelf = append(httpSelf, us-float64(engineNs[i+1])/1e3)
		}
	}

	iso, err := rp.isolated(ctx, round, tr, &isolated)
	if err != nil {
		return result{}, err
	}

	st := selfTimes(tr.spans)
	per := func(name string, unit float64) float64 {
		lt := st[name]
		if lt.Count == 0 {
			return 0
		}
		return float64(lt.SelfNs) / float64(lt.Count) / unit
	}
	perPoint := func(name string) float64 {
		if rp.batchPoints == 0 {
			return 0
		}
		return float64(st[name].SelfNs) / float64(rp.batchPoints)
	}
	perExec := func(n int64) float64 {
		if iso.executes == 0 {
			return 0
		}
		return float64(n) / float64(iso.executes)
	}
	phases := []phase{warm, httpPass, replayed, isolated}
	printPhases(phases)
	fmt.Printf("replays: %d untraced, %d traced; spans in the last trace: %d\n", len(plain), len(withSpans), len(tr.spans))
	res.Metrics, err = fill(perLayer, map[string]float64{
		"serve.http_us":               median(httpSelf),
		"wire.encode_ns_per_point":    perPoint("wire.encode"),
		"wire.decode_ns_per_point":    perPoint("wire.decode"),
		"fleet.route_ns":              per("fleet.route", 1),
		"fleet.admit_wait_ns":         per("fleet.admit", 1),
		"engine.predict_us":           per("engine.predict", 1e3),
		"engine.execute_ms":           per("engine.execute", 1e6),
		"engine.cold_work":            float64(after.Compiles + after.FeatureComputes + after.Trainings - before.Compiles - before.FeatureComputes - before.Trainings),
		"engine.observations_dropped": float64(after.ObservationsDropped),
		"ml.infer_us":                 per("ml.infer", 1e3),
		"ml.train_ms":                 per("ml.train", 1e6),
		"runtime.price_us":            per("runtime.price", 1e3),
		"runtime.execute_ms":          per("runtime.execute", 1e6),
		"runtime.price_all_us":        per("runtime.price_all", 1e3),
		"exec.run_ms.vec":             per("exec.run.vec", 1e6),
		"exec.run_ms.vm":              per("exec.run.vm", 1e6),
		"exec.vec_divergences":        perExec(iso.divergences),
		"exec.vec_reconverges":        perExec(iso.reconverges),
		"exec.vec_scalar_bails":       perExec(iso.scalarBails),
		"bench.instance_ms":           per("bench.instance", 1e6),
		"bench.verify_ms":             per("bench.verify", 1e6),
		"obs.append_us":               per("obs.append", 1e3),
		"obs.bytes_per_observation":   iso.obsBytesPer,
		"harness.generate_s":          per("harness.generate", 1e9),
		"core.compile_ms":             per("core.compile", 1e6),
		"trace.overhead_pct":          (median(withSpans)/median(plain) - 1) * 100,
	})
	if err != nil {
		return result{}, err
	}
	for _, p := range phases {
		res.Attempted += p.Attempted
		res.Failed += p.Failed
	}
	res.Correct = res.Failed == 0
	failed = !res.Correct
	return res, nil
}

// replay runs a workload's round in process through the layers serve
// uses, with the same database, artifacts and engine options.
type replay struct {
	rt     *fleet.Router
	db     *harness.DB
	mk     ml.NewModel
	log    *obs.Log // the engines' observation log (nil without -obs)
	tmp    string   // parent of the replay's temp dirs
	dirs   []string // temp dirs to remove on close
	intern *wire.Intern
	frames map[int][]byte // op index -> wire batch request frame
	reqs   []engine.Request
	preds  []engine.Prediction
	out    []byte
	// classes holds, per op, the served class of each point in the
	// last replay.
	classes     [][]int
	batchPoints int
}

func newReplay(e env, dir string, w *workload, round []op) (*replay, error) {
	db, err := harness.LoadDB(filepath.Join(dir, "db.json"))
	if err != nil {
		return nil, err
	}
	mk, err := harness.ModelByName(modelFamily)
	if err != nil {
		return nil, err
	}
	rp := &replay{
		db: db, mk: mk, tmp: e.Tmp, intern: wire.NewIntern(), frames: map[int][]byte{},
		reqs: make([]engine.Request, batchSize), preds: make([]engine.Prediction, batchSize),
		classes: make([][]int, len(round)),
	}
	if w.Obs {
		obsDir, err := os.MkdirTemp(e.Tmp, "obs-")
		if err != nil {
			return nil, err
		}
		rp.dirs = append(rp.dirs, obsDir)
		if rp.log, err = obs.Open(obs.Options{Dir: obsDir}); err != nil {
			rp.close()
			return nil, err
		}
	}
	tenants := engine.NewTenantTable()
	rp.rt, err = fleet.New(fleet.Options{
		Platforms:         platforms,
		ShardsPerPlatform: 1,
		NewEngine: func(platform string, _ int) (*engine.Engine, error) {
			return engine.New(engine.Options{
				Platform:          platform,
				DB:                db,
				ArtifactDir:       filepath.Join(dir, "models"),
				Model:             mk,
				ObsLog:            rp.log,
				OracleSampleEvery: 1,
				Tenant:            engine.TenantLimits{MaxKernels: 32, MaxSourceBytes: 1 << 20},
				SharedTenants:     tenants,
			})
		},
	})
	if err != nil {
		rp.close()
		return nil, err
	}
	for i, o := range round {
		rp.classes[i] = make([]int, len(o.Points))
		if o.Kind == opBatch {
			reqs := make([]engine.Request, len(o.Points))
			for j, pt := range o.Points {
				reqs[j] = engine.Request{Program: pt.Program, SizeIdx: pt.Size, LeaveOut: true}
			}
			rp.frames[i] = wire.AppendBatchRequest(nil, reqs)
			rp.batchPoints += len(o.Points)
		}
	}
	return rp, nil
}

func (rp *replay) close() {
	if rp.rt != nil {
		for _, sh := range rp.rt.Shards() {
			sh.Engine().Close()
		}
	}
	if rp.log != nil {
		rp.log.Close()
	}
	for _, d := range rp.dirs {
		os.RemoveAll(d)
	}
}

// run replays round once; with tr, every layer call is a span whose
// parent is the request's serve.request span. Answers are checked
// outside the spans.
func (rp *replay) run(ctx context.Context, round []op, tr *tracer, chk *checker, ph *phase) {
	for i := range round {
		o := &round[i]
		ph.Attempted++
		root := tr.begin("serve.request", i+1, 0)
		a, err := rp.one(ctx, i, o, tr, root)
		tr.end(root)
		if err == nil {
			err = chk.answer(o, a)
		}
		if err != nil {
			ph.fail(err)
			continue
		}
		for j := range a.Preds {
			rp.classes[i][j] = a.Preds[j].Class
		}
	}
}

// one handles request i the way serve's handler does: route, admit,
// decode, engine, encode.
func (rp *replay) one(ctx context.Context, i int, o *op, tr *tracer, root int) (answer, error) {
	req := i + 1
	var sh *fleet.Shard
	var err error
	tr.do("fleet.route", req, root, func() { sh, err = rp.rt.ShardFor(o.Platform, "") })
	if err != nil {
		return answer{}, err
	}
	var permit fleet.Permit
	tr.do("fleet.admit", req, root, func() { permit, err = sh.Admit(ctx) })
	if err != nil {
		return answer{}, err
	}
	defer permit.Release()
	eng := sh.Engine()
	switch o.Kind {
	case opPredict:
		r := engine.Request{Program: o.Points[0].Program, SizeIdx: o.Points[0].Size, LeaveOut: true}
		tr.do("engine.predict", req, root, func() { err = eng.PredictInto(r, &rp.preds[0]) })
		return answer{Preds: rp.preds[:1]}, err
	case opExecute:
		r := engine.Request{Program: o.Points[0].Program, SizeIdx: o.Points[0].Size, LeaveOut: true}
		var x *engine.Execution
		tr.do("engine.execute", req, root, func() { x, err = eng.Execute(ctx, r) })
		if err != nil {
			return answer{}, err
		}
		return answer{Preds: []engine.Prediction{x.Prediction}, Exec: x}, nil
	}
	n := 0
	tr.do("wire.decode", req, root, func() {
		var msg byte
		var payload []byte
		if msg, payload, err = wire.ParseFrame(rp.frames[i]); err != nil {
			return
		}
		if msg != wire.MsgBatchReq {
			err = fmt.Errorf("message type %d", msg)
			return
		}
		var it wire.BatchIter
		if it, err = wire.DecodeBatchRequest(payload); err != nil {
			return
		}
		for n < len(rp.reqs) && it.Next(&rp.reqs[n], rp.intern) {
			n++
		}
		err = it.Err()
	})
	if err != nil {
		return answer{}, err
	}
	for k := 0; k < n; k++ {
		tr.do("engine.predict", req, root, func() { err = eng.PredictInto(rp.reqs[k], &rp.preds[k]) })
		if err != nil {
			return answer{}, err
		}
	}
	tr.do("wire.encode", req, root, func() {
		var enc wire.BatchEncoder
		enc.Begin(rp.out[:0])
		for k := 0; k < n; k++ {
			enc.Prediction(&rp.preds[k])
		}
		rp.out = enc.Finish()
	})
	return answer{Preds: rp.preds[:n]}, nil
}

// isoStats is what the isolated calls count besides their spans.
type isoStats struct {
	executes                              int
	divergences, reconverges, scalarBails int64
	obsBytesPer                           float64
}

// cell is one (platform, program, size) with the inputs its isolated
// layer calls need, built once and untimed.
type cell struct {
	fw     *core.Framework
	bp     *bench.Program
	prog   *core.Program
	fv     features.Vector
	prof   *exec.Profile
	launch runtime.Launch
	art    *ml.Artifact
}

// isolated times, alone and on the same inputs as the replay, every
// layer whose call sits inside another public function, plus the
// offline phase's pieces, and checks each executed cell: its served
// partition must leave the same output bytes and the same profile totals
// as an unpartitioned run.
func (rp *replay) isolated(ctx context.Context, round []op, tr *tracer, ph *phase) (isoStats, error) {
	var st isoStats
	obsDir, err := os.MkdirTemp(rp.tmp, "obs-iso-")
	if err != nil {
		return st, err
	}
	rp.dirs = append(rp.dirs, obsDir)
	olog, err := obs.Open(obs.Options{Dir: obsDir})
	if err != nil {
		return st, err
	}
	defer olog.Close()

	fws := map[string]*core.Framework{}
	progs := map[string]*core.Program{}
	cells := map[cellKey]*cell{}
	getCell := func(plat string, pt point) (*cell, error) {
		k := cellKey{plat, pt}
		if c := cells[k]; c != nil {
			return c, nil
		}
		fw := fws[plat]
		if fw == nil {
			p, err := device.ByName(plat)
			if err != nil {
				return nil, err
			}
			if fw, err = core.New(p); err != nil {
				return nil, err
			}
			fws[plat] = fw
		}
		bp, err := bench.Get(pt.Program)
		if err != nil {
			return nil, err
		}
		prog := progs[pt.Program]
		if prog == nil {
			tr.do("core.compile", 0, 0, func() { prog, err = core.CompileSource(bp.Name, bp.Source, bp.Kernel) })
			if err != nil {
				return nil, err
			}
			progs[pt.Program] = prog
		}
		inst, err := bp.Instance(pt.Size)
		if err != nil {
			return nil, err
		}
		fv, prof, err := fw.Features(prog, core.LaunchSpec{Args: inst.Args, ND: inst.ND, Iterations: bp.Iterations})
		if err != nil {
			return nil, err
		}
		prof.Precompute()
		sh, err := rp.rt.ShardFor(plat, "")
		if err != nil {
			return nil, err
		}
		art, err := sh.Engine().Model(pt.Program)
		if err != nil {
			return nil, err
		}
		c := &cell{fw: fw, bp: bp, prog: prog, fv: fv, prof: prof, art: art,
			launch: runtime.Launch{Kernel: prog.Compiled, Plan: prog.Plan, Args: inst.Args, ND: inst.ND, Iterations: bp.Iterations}}
		cells[k] = c
		return c, nil
	}

	for i := range round {
		if ctx.Err() != nil {
			return st, ctx.Err()
		}
		o := &round[i]
		req := i + 1
		for j, pt := range o.Points {
			c, err := getCell(o.Platform, pt)
			if err != nil {
				return st, err
			}
			class := rp.classes[i][j]
			var raw int
			tr.do("ml.infer", req, 0, func() { raw = c.art.Predict(c.fv.Values) })
			var t float64
			tr.do("runtime.price", req, 0, func() { t, err = c.fw.Runtime.PriceMakespan(c.launch, c.prof, c.fw.ClassPartition(class)) })
			ph.Attempted++
			if err == nil && raw != class {
				err = fmt.Errorf("%s/%s/S%d: model alone picks class %d, the engine served %d", o.Platform, pt.Program, pt.Size, raw, class)
			}
			if err == nil && !(t > 0) {
				err = fmt.Errorf("%s/%s/S%d: priced %g", o.Platform, pt.Program, pt.Size, t)
			}
			if err != nil {
				ph.fail(err)
			}
			if o.Kind == opExecute {
				ph.Attempted++
				if err := rp.executeAlone(tr, req, o.Platform, pt, c, class, olog, &st); err != nil {
					ph.fail(err)
				}
			}
		}
	}

	// The offline phase's pieces: leave-one-out trainings of the
	// workload's programs and one database sweep.
	for _, plat := range platforms {
		data := rp.db.Dataset(plat, nil)
		seen := map[string]bool{}
		for _, o := range round {
			for _, pt := range o.Points {
				if seen[pt.Program] {
					continue
				}
				seen[pt.Program] = true
				trainIdx, _ := data.SplitByGroup(pt.Program)
				sub := data.Subset(trainIdx)
				tr.do("ml.train", 0, 0, func() { _, err = ml.TrainArtifact(sub, rp.mk) })
				if err != nil {
					return st, err
				}
			}
		}
	}
	tr.do("harness.generate", 0, 0, func() {
		_, err = harness.Generate(harness.GenOptions{MaxSizeIdx: maxSize, Cache: harness.NewProfileCache()})
	})
	if err != nil {
		return st, err
	}
	if n := olog.Stats().Total; n > 0 {
		st.obsBytesPer = float64(dirBytes(obsDir)) / float64(n)
	}
	return st, nil
}

// executeAlone runs one execute request's inner layers on their own:
// instance build, the partitioned run, verification, an unpartitioned
// run on the request's tier, oracle labelling and the observation
// append. The partitioned and unpartitioned runs must agree byte for
// byte on every output buffer and on the profile totals.
func (rp *replay) executeAlone(tr *tracer, req int, plat string, pt point, c *cell, class int, olog *obs.Log, st *isoStats) error {
	where := fmt.Sprintf("%s/%s/S%d", plat, pt.Program, pt.Size)
	var inst *bench.Instance
	var err error
	tr.do("bench.instance", req, 0, func() { inst, err = c.bp.Instance(pt.Size) })
	if err != nil {
		return err
	}
	l := c.launch
	l.Args = inst.Args
	var res *runtime.Result
	tr.do("runtime.execute", req, 0, func() { res, err = c.fw.Runtime.Execute(l, c.fw.ClassPartition(class)) })
	if err != nil {
		return err
	}
	st.executes++
	st.divergences += int64(res.Profile.VecDivergences)
	st.reconverges += int64(res.Profile.VecReconverges)
	st.scalarBails += int64(res.Profile.VecScalarBails)
	var verifyErr error
	tr.do("bench.verify", req, 0, func() { verifyErr = c.bp.Verify(inst, pt.Size) })

	whole, err := c.bp.Instance(pt.Size)
	if err != nil {
		return err
	}
	nd, err := whole.ND.Normalized()
	if err != nil {
		return err
	}
	var prof *exec.Profile
	tr.do("exec.run."+c.prog.Compiled.Tier().String(), req, 0, func() {
		prof, err = c.prog.Compiled.Run(whole.Args, nd, exec.RunOptions{})
	})
	if err != nil {
		return err
	}

	space := partition.Space(c.fw.Platform.NumDevices(), partition.DefaultSteps)
	times := make([]float64, len(space))
	tr.do("runtime.price_all", req, 0, func() { _, err = c.fw.Runtime.PriceAll(c.launch, c.prof, space, times) })
	if err != nil {
		return err
	}
	best := 0
	for k, t := range times {
		if t < times[best] {
			best = k
		}
	}
	o := obs.Observation{
		Time: time.Now().UnixNano(), Platform: plat, Program: pt.Program, Suite: c.bp.Suite,
		SizeIdx: pt.Size, SizeLabel: c.bp.Sizes[pt.Size].Label, SizeN: c.bp.Sizes[pt.Size].N,
		FeatureNames: c.fv.Names, Features: c.fv.Values,
		Class: class, Partition: space[class].String(), Makespan: res.Makespan, Verified: verifyErr == nil,
		Labeled: true, BestClass: best, BestPartition: space[best].String(), OracleTime: times[best], Times: times,
	}
	tr.do("obs.append", req, 0, func() { _, err = olog.Append(o) })
	if err != nil {
		return err
	}

	if verifyErr != nil {
		return fmt.Errorf("%s: partitioned run not verified: %v", where, verifyErr)
	}
	if a, b := res.Profile.Total(), prof.Total(); a != b {
		return fmt.Errorf("%s: profile totals differ: partitioned %+v, whole %+v", where, a, b)
	}
	for k := range inst.Args {
		if !sameBuffer(inst.Args[k].Buf, whole.Args[k].Buf) {
			return fmt.Errorf("%s: argument %d differs between the partitioned and the whole run", where, k)
		}
	}
	return nil
}

// sameBuffer reports whether two buffers hold the same bytes (both nil
// for a scalar argument).
func sameBuffer(a, b *exec.Buffer) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Kind != b.Kind || len(a.F) != len(b.F) || len(a.I) != len(b.I) {
		return false
	}
	for i := range a.F {
		if math.Float32bits(a.F[i]) != math.Float32bits(b.F[i]) {
			return false
		}
	}
	for i := range a.I {
		if a.I[i] != b.I[i] {
			return false
		}
	}
	return true
}

// dirBytes sums the sizes of the regular files directly in dir.
func dirBytes(dir string) int64 {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range ents {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
}
