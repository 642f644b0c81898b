package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/jury/serve"
)

// Correctness samples kept per client: enough to cover the run, few
// enough that recomputing them in-process stays cheap.
const (
	binarySampleEvery = 8
	binarySamplesMax  = 24
	multiSampleEvery  = 6
	multiSamplesMax   = 8
)

type binarySample struct {
	budget float64
	seed   int64
	resp   serve.SelectResponse
}

type multiSample struct {
	budget float64
	seed   int64
	resp   serve.MultiSelectResponse
}

// recorder collects one measured phase: latencies and failures per
// request class, the benchmark's client spans, and what the
// correctness checks need afterwards.
type recorder struct {
	mu        sync.Mutex
	start     time.Time
	elapsed   time.Duration
	lat       [numKinds][]time.Duration
	attempted [numKinds]int
	failed    [numKinds]int
	firstErr  error
	spans     []clientSpan
	binary    []binarySample
	multi     []multiSample
	acked     map[string]tally // ingest-fsync: acknowledged votes per worker
	firstRead map[float64]*serve.SelectResponse
	readErr   error
}

func newRecorder() *recorder {
	return &recorder{acked: map[string]tally{}, firstRead: map[float64]*serve.SelectResponse{}}
}

func (r *recorder) add(kind opKind, id string, start time.Time, d time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted[kind]++
	if err != nil {
		r.failed[kind]++
		if r.firstErr == nil {
			r.firstErr = fmt.Errorf("%s %s: %w", kind, id, err)
		}
	} else {
		r.lat[kind] = append(r.lat[kind], d)
	}
	r.spans = append(r.spans, clientSpan{
		ID: id, Op: kind.String(), OK: err == nil,
		StartMs: float64(start.Sub(r.start)) / 1e6, DurMs: float64(d) / 1e6,
	})
}

func (r *recorder) totals() (attempted, failed int) {
	for k := range numKinds {
		attempted += r.attempted[k]
		failed += r.failed[k]
	}
	return attempted, failed
}

// drive runs the closed loop: each client walks its own script from
// stream base+client, sending the next request only after the previous
// reply. With maxOps > 0 each client sends exactly maxOps requests;
// otherwise the phase lasts d.
func (b *bench) drive(ctx context.Context, cl *cluster, tag string, base uint64, d time.Duration, maxOps int) *recorder {
	rec := newRecorder()
	rec.start = time.Now()
	deadline := rec.start.Add(d)
	more := func(i int) bool {
		if maxOps > 0 {
			return i < maxOps
		}
		return time.Now().Before(deadline)
	}
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := newScript(b.name, b.seed, base+uint64(c))
			for i := 0; more(i); i++ {
				o := s.next()
				id := fmt.Sprintf("%s-%d-%d", tag, c, i)
				t0 := time.Now()
				err := b.exec(serve.WithRequestID(ctx, id), cl, o, i, rec)
				rec.add(o.kind, id, t0, time.Since(t0), err)
			}
		}()
	}
	wg.Wait()
	rec.elapsed = time.Since(rec.start)
	return rec
}

// exec sends one scripted request and keeps what the checks need.
func (b *bench) exec(ctx context.Context, cl *cluster, o op, i int, rec *recorder) error {
	switch o.kind {
	case opSelect:
		seed := o.seed
		res, err := cl.client.Select(ctx, serve.SelectRequest{Budget: o.budget, Seed: &seed})
		if err != nil {
			return err
		}
		rec.mu.Lock()
		defer rec.mu.Unlock()
		if i%binarySampleEvery == 0 && i/binarySampleEvery < binarySamplesMax {
			rec.binary = append(rec.binary, binarySample{o.budget, o.seed, res})
		}
	case opMulti:
		seed := o.seed
		res, err := cl.client.MultiSelect(ctx, multiPoolName, serve.MultiSelectRequest{Budget: o.budget, Seed: &seed})
		if err != nil {
			return err
		}
		rec.mu.Lock()
		defer rec.mu.Unlock()
		if i%multiSampleEvery == 0 && i/multiSampleEvery < multiSamplesMax {
			rec.multi = append(rec.multi, multiSample{o.budget, o.seed, res})
		}
	case opIngest:
		if _, err := cl.client.IngestVoteKeyed(ctx, o.vote, o.key); err != nil {
			return err
		}
		rec.mu.Lock()
		defer rec.mu.Unlock()
		t := rec.acked[o.vote.WorkerID]
		t.votes++
		if o.vote.Correct {
			t.correct++
		}
		rec.acked[o.vote.WorkerID] = t
	case opRead:
		res, err := cl.client.Select(ctx, serve.SelectRequest{Budget: o.budget, WorkerIDs: b.quiet})
		if err != nil {
			return err
		}
		rec.mu.Lock()
		defer rec.mu.Unlock()
		first := rec.firstRead[o.budget]
		if err := checkRead(b.quiet, o.budget, first, res); err != nil && rec.readErr == nil {
			rec.readErr = err
		}
		if first == nil {
			rec.firstRead[o.budget] = &res
		}
	}
	return nil
}
