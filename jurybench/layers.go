package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/jq"
	"repro/internal/multichoice"
	"repro/internal/repl"
	"repro/internal/selection"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/worker"
)

// The in-process layer pass: the benchmark calls each layer through its
// public seams, wrapping the seam to count and time the calls, and never
// changes the program. Every wrapped computation must return exactly
// what the unwrapped one does.

// evalTimeEvery keeps one evaluation duration in this many: a select
// makes tens of thousands of evaluations.
const evalTimeEvery = 8

// bvStats accumulates what the wrapped jq evaluators saw.
type bvStats struct {
	mu         sync.Mutex
	estimators []*jq.Estimator
	evals      atomic.Int64
	visited    atomic.Int64
	pruned     atomic.Int64
	evalNanos  atomic.Int64
	durs       []float64 // µs, one in evalTimeEvery
}

// timedBV is a selection.Objective and EvaluatorProvider that builds the
// same jq.Estimator selection.BVObjective builds and times every
// evaluation through it.
type timedBV struct{ st *bvStats }

func (timedBV) Name() string { return "BV" }

func (timedBV) JQ(jury worker.Pool, alpha float64) (float64, error) {
	return selection.BVObjective{}.JQ(jury, alpha)
}

func (o timedBV) NewEvaluator(pool worker.Pool, alpha float64) (selection.Evaluator, error) {
	est, err := jq.NewEstimator(pool, alpha, jq.Options{})
	if err != nil {
		return nil, err
	}
	o.st.mu.Lock()
	o.st.estimators = append(o.st.estimators, est)
	o.st.mu.Unlock()
	return &timedEval{est: est, alpha: alpha, st: o.st}, nil
}

type timedEval struct {
	est   *jq.Estimator
	alpha float64
	st    *bvStats
	n     int
}

func (e *timedEval) Name() string { return "BV" }

func (e *timedEval) Eval(indices []int) (float64, error) {
	if len(indices) == 0 {
		// The empty jury is answered from the prior, as BVObjective does.
		return math.Max(e.alpha, 1-e.alpha), nil
	}
	t := time.Now()
	res, err := e.est.Eval(indices)
	d := time.Since(t)
	if err != nil {
		return 0, err
	}
	e.st.evals.Add(1)
	e.st.visited.Add(int64(res.KeysVisited))
	e.st.pruned.Add(int64(res.KeysPruned))
	e.st.evalNanos.Add(int64(d))
	if e.n%evalTimeEvery == 0 {
		e.st.mu.Lock()
		e.st.durs = append(e.st.durs, float64(d)/1e3)
		e.st.mu.Unlock()
	}
	e.n++
	return res.JQ, nil
}

// memoHitRate sums Estimator.Stats over every estimator built.
func (st *bvStats) memoHitRate() float64 {
	var hits, evals int
	for _, e := range st.estimators {
		s := e.Stats()
		hits += s.Hits
		evals += s.Evals
	}
	return ratio(float64(hits), float64(evals))
}

// allocs reports mallocs and bytes allocated by f.
func allocs(f func()) (mallocs, bytes uint64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc
}

// singleProc runs f with GOMAXPROCS 1, so annealing restarts run one
// after another and a select's wall time splits cleanly into time
// inside and outside the evaluator.
func singleProc(f func()) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	f()
}

// binaryPass checks every sampled select against selection.OPTJS and,
// when layered, repeats it through the timed evaluator to measure the
// selection and jq layers.
func binaryPass(pool worker.Pool, ids []string, samples []binarySample, alpha float64, layered bool, out metricSet) error {
	var selMs, selfMs []float64
	var evals, mallocs float64
	st := &bvStats{}
	for _, s := range samples {
		var want selection.Result
		var err error
		run := func() { want, err = selection.OPTJS(s.seed).Select(pool, s.budget, alpha) }
		if !layered {
			run()
		} else {
			singleProc(func() {
				t := time.Now()
				m, _ := allocs(run)
				selMs = append(selMs, float64(time.Since(t))/1e6)
				mallocs += float64(m)
			})
		}
		if err != nil {
			return fmt.Errorf("reference select: %w", err)
		}
		if err := checkBinary(want, ids, s.budget, s.resp); err != nil {
			return fmt.Errorf("budget %v seed %d: %w", s.budget, s.seed, err)
		}
		if !layered {
			continue
		}
		var got selection.Result
		singleProc(func() {
			before := st.evalNanos.Load()
			t := time.Now()
			got, err = selection.Auto{Objective: timedBV{st}, Seed: s.seed, Restarts: 2, AllowRemoval: true}.Select(pool, s.budget, alpha)
			wall := time.Since(t)
			selfMs = append(selfMs, float64(wall-time.Duration(st.evalNanos.Load()-before))/1e6)
		})
		if err != nil {
			return fmt.Errorf("timed select: %w", err)
		}
		if !slices.Equal(got.Indices, want.Indices) || math.Float64bits(got.JQ) != math.Float64bits(want.JQ) {
			return fmt.Errorf("timed evaluator changed the jury for budget %v seed %d", s.budget, s.seed)
		}
		evals += float64(got.Evaluations)
	}
	if !layered || len(samples) == 0 {
		return nil
	}
	n := float64(len(samples))
	out["selection.select_ms_p50"] = median(selMs)
	out["selection.self_ms_p50"] = median(selfMs)
	out["selection.evals_per_select"] = evals / n
	out["selection.allocs_per_select"] = mallocs / n
	out["jq.evals"] = float64(st.evals.Load())
	out["jq.eval_us_p50"] = median(st.durs)
	out["jq.dp_keys_per_eval"] = ratio(float64(st.visited.Load()), float64(st.evals.Load()))
	out["jq.pruned_frac"] = ratio(float64(st.pruned.Load()), float64(st.visited.Load()))
	out["jq.memo_hit_rate"] = st.memoHitRate()
	return nil
}

// multiPass checks sampled multi-choice selects against an in-process
// multichoice.SelectAnnealing and, when layered, repeats each through a
// timed Objective to measure the multichoice layer. Unlayered, only the
// first `limit` samples are recomputed.
func multiPass(pool multichoice.Pool, ids []string, samples []multiSample, layered bool, limit int, out metricSet) error {
	prior := multichoice.UniformPrior(multiLabels)
	obj := multichoice.EstimateObjective(multichoice.DefaultEstimateBuckets)
	var selMs, objUs []float64
	var calls, mallocs, bytes float64
	n := 0
	for k, s := range samples {
		if !layered && k >= limit {
			break
		}
		n++
		var want multichoice.SelectionResult
		var err error
		run := func() { want, err = multichoice.SelectAnnealing(pool, s.budget, prior, obj, s.seed) }
		if !layered {
			run()
		} else {
			singleProc(func() {
				t := time.Now()
				m, b := allocs(run)
				selMs = append(selMs, float64(time.Since(t))/1e6)
				mallocs += float64(m)
				bytes += float64(b)
			})
		}
		if err != nil {
			return fmt.Errorf("reference multi select: %w", err)
		}
		if err := checkMultiSame(multiAnswer(want, ids), s.resp); err != nil {
			return fmt.Errorf("seed %d against in-process SelectAnnealing: %w", s.seed, err)
		}
		if !layered {
			continue
		}
		c := 0
		timed := func(jury multichoice.Pool, p multichoice.Prior) (float64, error) {
			t := time.Now()
			v, err := obj(jury, p)
			if c%evalTimeEvery == 0 {
				objUs = append(objUs, float64(time.Since(t))/1e3)
			}
			c++
			return v, err
		}
		got, err := multichoice.SelectAnnealing(pool, s.budget, prior, timed, s.seed)
		if err != nil {
			return fmt.Errorf("timed multi select: %w", err)
		}
		if err := checkMultiSame(multiAnswer(want, ids), multiAnswer(got, ids)); err != nil {
			return fmt.Errorf("timed objective changed the jury: %w", err)
		}
		calls += float64(c)
	}
	if !layered || n == 0 {
		return nil
	}
	out["multichoice.select_ms_p50"] = median(selMs)
	out["multichoice.objective_calls_per_select"] = calls / float64(n)
	out["multichoice.objective_us_p50"] = median(objUs)
	out["multichoice.allocs_per_select"] = mallocs / float64(n)
	out["multichoice.bytes_per_select"] = bytes / float64(n)
	return nil
}

// syncFS is a wal.FS over the real filesystem that counts and times the
// fsyncs of every file opened for writing.
type syncFS struct {
	wal.FS
	syncs atomic.Int64
	nanos atomic.Int64
}

func (f *syncFS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &syncFile{File: file, fs: f}, nil
}

type syncFile struct {
	wal.File
	fs *syncFS
}

func (f *syncFile) Sync() error {
	t := time.Now()
	err := f.File.Sync()
	f.fs.nanos.Add(int64(time.Since(t)))
	f.fs.syncs.Add(1)
	return err
}

// inprocFollower is a follower replica run inside the benchmark process
// through repl.Bootstrap, server.Open and repl.NewFollower, so its WAL
// syncs can be counted through a wal.FS.
type inprocFollower struct {
	srv    *server.Server
	fs     *syncFS
	cancel context.CancelFunc
	done   chan error
}

// startInprocFollower bootstraps dir from the primary and starts
// replicating. durability is the daemons' durability flag list: its
// boolean flags are mirrored onto server.Config fields of the same name
// (-fsync → Fsync, -group-commit → GroupCommit), so the in-process
// follower runs the same durability mode as the daemons.
func startInprocFollower(ctx context.Context, primary, dir string, durability []string) (*inprocFollower, error) {
	if _, err := repl.Bootstrap(ctx, nil, primary, dir); err != nil {
		return nil, fmt.Errorf("in-process follower bootstrap: %w", err)
	}
	fs := &syncFS{FS: wal.OSFS()}
	cfg := server.Config{DataDir: dir, FS: fs, TraceBuffer: -1, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}
	mirrorBoolFlags(&cfg, durability)
	srv, err := server.Open(cfg)
	if err != nil {
		return nil, fmt.Errorf("in-process follower open: %w", err)
	}
	srv.SetFollower(primary)
	rctx, cancel := context.WithCancel(ctx)
	f := &inprocFollower{srv: srv, fs: fs, cancel: cancel, done: make(chan error, 1)}
	go func() { f.done <- repl.NewFollower(srv, primary, repl.Options{ID: "jurybench-inproc"}).Run(rctx) }()
	return f, nil
}

// stop ends replication and closes the follower's WAL.
func (f *inprocFollower) stop() error {
	f.cancel()
	err := <-f.done
	if cerr := f.srv.ClosePersistence(); err == nil {
		err = cerr
	}
	return err
}

// mirrorBoolFlags sets, for every "-some-flag" in flags that names a
// bool field SomeFlag of cfg, that field to true.
func mirrorBoolFlags(cfg *server.Config, flags []string) {
	v := reflect.ValueOf(cfg).Elem()
	for _, fl := range flags {
		name, ok := strings.CutPrefix(fl, "-")
		if !ok {
			continue
		}
		var field strings.Builder
		for _, part := range strings.Split(name, "-") {
			if part != "" {
				field.WriteString(strings.ToUpper(part[:1]) + part[1:])
			}
		}
		if f := v.FieldByName(field.String()); f.IsValid() && f.Kind() == reflect.Bool {
			f.SetBool(true)
		}
	}
}
