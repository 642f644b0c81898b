package main

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/multichoice"
	"repro/internal/worker"
	"repro/jury/serve"
)

// clients is the closed-loop client count of every workload: one per
// CPU of the 2-CPU machines the benchmark was sized on. Each client
// sends its next request only after the previous reply arrived.
const clients = 2

// Workload shape constants. They are part of the benchmark definition:
// changing one changes what every recorded number means.
const (
	selectPoolSize  = 128
	multiPoolSize   = 20
	multiLabels     = 3
	multiBudget     = 15
	ingestPoolSize  = 32 // first half busy (voted on), second half quiet
	ingestPreVotes  = 20000
	ingestPreBatch  = 10
	ingestWritesPer = 3 // keyed single-vote ingests per read
	multiPoolName   = "m"
)

var (
	selectBudgets = [...]float64{10, 15, 20}
	readBudgets   = [...]float64{6, 8, 10}
)

type opKind int

const (
	opSelect opKind = iota // uncached binary select
	opMulti                // uncached multi-choice select
	opIngest               // keyed single-vote ingest on the primary
	opRead                 // cached binary select on the follower
	numKinds
)

func (k opKind) String() string {
	return [...]string{"select", "multi", "ingest", "read"}[k]
}

// op is one scripted request.
type op struct {
	kind   opKind
	budget float64
	seed   int64
	vote   serve.VoteEvent
	key    string // Idempotency-Key of an ingest
}

// rngFor derives an independent deterministic stream for one purpose of
// one run: the workload seed and a stream number select it.
func rngFor(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream*0x9E3779B97F4A7C15+1))
}

// Stream numbers. Client c of a phase reads stream base+c.
const (
	streamPool     = 1
	streamMeasure  = 100
	streamWarm     = 200
	streamPrebuild = 300
)

// round3 keeps generated parameters short on the wire and in logs.
func round3(x float64) float64 { return math.Round(x*1000) / 1000 }

// grid returns n values evenly spaced over [lo, hi).
func grid(n int, lo, hi float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = round3(lo + (hi-lo)*(float64(i)+0.5)/float64(n))
	}
	return out
}

// binaryPool generates n binary workers. Worker k of the fixed pool has
// the k-th quality of a grid over [0.55, 0.95) and integer cost
// 1 + 3k mod 5, so quality and cost are uncorrelated; the seed only
// shuffles the order the workers are registered in. Every seed thus
// poses the same selection problem, and the work per request does not
// depend on the seed. IDs carry the prefix and the position.
func binaryPool(seed int64, n int, prefix string) []serve.WorkerSpec {
	qualities := grid(n, 0.55, 0.95)
	order := rngFor(seed, streamPool).Perm(n)
	out := make([]serve.WorkerSpec, n)
	for i, k := range order {
		out[i] = serve.WorkerSpec{ID: fmt.Sprintf("%s%03d", prefix, i), Quality: qualities[k], Cost: float64(1 + 3*k%5)}
	}
	return out
}

// asPool is the worker.Pool juryd snapshots for specs registered in
// this order and never voted on.
func asPool(specs []serve.WorkerSpec) (worker.Pool, []string) {
	pool := make(worker.Pool, len(specs))
	ids := make([]string, len(specs))
	for i, s := range specs {
		pool[i] = worker.Worker{ID: s.ID, Quality: s.Quality, Cost: s.Cost}
		ids[i] = s.ID
	}
	return pool, ids
}

// multiPoolSpecs generates the multi-choice pool, the shape of the
// repository's BenchmarkServerMultiSelect: symmetric confusion matrices
// of scalar quality over [0.45, 0.95) and costs over [1, 10). Worker k
// pairs the k-th quality with the (7k mod 20)-th cost; the seed only
// shuffles the registration order, as in binaryPool.
func multiPoolSpecs(seed int64) []serve.MultiWorkerSpec {
	qualities := grid(multiPoolSize, 0.45, 0.95)
	costs := grid(multiPoolSize, 1, 10)
	order := rngFor(seed, streamPool).Perm(multiPoolSize)
	out := make([]serve.MultiWorkerSpec, multiPoolSize)
	for i, k := range order {
		out[i] = serve.MultiWorkerSpec{ID: fmt.Sprintf("m%02d", i), Quality: &qualities[k], Cost: costs[7*k%multiPoolSize]}
	}
	return out
}

// asMultiPool is the multichoice.Pool juryd snapshots for specs: the
// same symmetric matrices, built by the same function.
func asMultiPool(specs []serve.MultiWorkerSpec) (multichoice.Pool, []string, error) {
	pool := make(multichoice.Pool, len(specs))
	ids := make([]string, len(specs))
	for i, s := range specs {
		m, err := multichoice.NewSymmetricConfusion(multiLabels, *s.Quality)
		if err != nil {
			return nil, nil, err
		}
		pool[i] = multichoice.Worker{ID: s.ID, Confusion: m, Cost: s.Cost}
		ids[i] = s.ID
	}
	return pool, ids, nil
}

// script is one client's fixed request sequence for a workload; the
// same (workload, seed, stream) always yields the same sequence.
type script struct {
	workload string
	seed     int64
	stream   uint64
	rng      *rand.Rand
	i        int
	budgets  []float64 // select-128: the current shuffled round of budgets
	busy     []serve.WorkerSpec
}

func newScript(workload string, seed int64, stream uint64) *script {
	s := &script{workload: workload, seed: seed, stream: stream, rng: rngFor(seed, stream)}
	if workload == "ingest-fsync" {
		s.busy = binaryPool(seed, ingestPoolSize, "w")[:ingestPoolSize/2]
	}
	return s
}

// next returns the script's next request.
func (s *script) next() op {
	i := s.i
	s.i++
	switch s.workload {
	case "select-128":
		// Budgets rotate through shuffled rounds of {10, 15, 20}, so each
		// class is exactly a third of the requests; every request carries
		// a fresh seed, so none can be answered from the cache.
		if len(s.budgets) == 0 {
			s.budgets = append(s.budgets, selectBudgets[:]...)
			s.rng.Shuffle(len(s.budgets), func(a, b int) { s.budgets[a], s.budgets[b] = s.budgets[b], s.budgets[a] })
		}
		b := s.budgets[0]
		s.budgets = s.budgets[1:]
		return op{kind: opSelect, budget: b, seed: s.rng.Int64()}
	case "multi-20x3":
		return op{kind: opMulti, budget: multiBudget, seed: s.rng.Int64()}
	case "ingest-fsync":
		if i%(ingestWritesPer+1) == ingestWritesPer {
			return op{kind: opRead, budget: readBudgets[(i/(ingestWritesPer+1))%len(readBudgets)]}
		}
		w := s.busy[s.rng.IntN(len(s.busy))]
		return op{
			kind: opIngest,
			vote: serve.VoteEvent{WorkerID: w.ID, Correct: s.rng.Float64() < w.Quality},
			key:  fmt.Sprintf("jb-%d-%d-%d", s.seed, s.stream, i),
		}
	}
	panic("jurybench: unknown workload " + s.workload)
}

// quietIDs are the ingest-fsync workers no measured request votes on:
// the reads select among them, so their signature and cache entries
// never change.
func quietIDs(seed int64) []string {
	specs := binaryPool(seed, ingestPoolSize, "w")[ingestPoolSize/2:]
	ids := make([]string, len(specs))
	for i, s := range specs {
		ids[i] = s.ID
	}
	return ids
}

// prebuildVotes is the seeded journal content of ingest-fsync: 20,000
// graded votes over all 32 workers, in keyed batches of 10.
func prebuildVotes(seed int64) [][]serve.VoteEvent {
	specs := binaryPool(seed, ingestPoolSize, "w")
	rng := rngFor(seed, streamPrebuild)
	batches := make([][]serve.VoteEvent, ingestPreVotes/ingestPreBatch)
	for b := range batches {
		batch := make([]serve.VoteEvent, ingestPreBatch)
		for i := range batch {
			w := specs[rng.IntN(len(specs))]
			batch[i] = serve.VoteEvent{WorkerID: w.ID, Correct: rng.Float64() < w.Quality}
		}
		batches[b] = batch
	}
	return batches
}
