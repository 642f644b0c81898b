package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Share of --seconds a traced run spends on its untraced baseline; the
// rest is the traced phase the per-layer metrics come from.
const untracedShare = 0.3

func secondsDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// selectRoute is the route whose requests a workload's serving node
// answers from its selection path.
var selectRoute = map[string]string{
	"select-128":   "POST /v1/select",
	"multi-20x3":   "POST /v1/multi/pools/{pool}/select",
	"ingest-fsync": "POST /v1/select",
}

const ingestRoute = "POST /v1/votes"

// Stages a request passes through one after another; wal_fsync is left
// out because under group commit it lies inside wal_flush.
var (
	selectStages = []string{"admission", "cache_lookup", "evaluate", "encode"}
	ingestStages = []string{"admission", "idempotency", "wal_encode", "wal_append", "wal_flush", "apply", "encode"}
)

// sampler scrapes every daemon's /metrics during the traced phase for
// the gauges a before/after delta cannot give: peak heap and peak
// follower lag.
type sampler struct {
	stop    chan struct{}
	done    chan struct{}
	heapMax float64 // MiB, summed over the daemons
	lagMax  float64 // records
}

func startSampler(ctx context.Context, cl *cluster) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(250 * time.Millisecond)
		defer t.Stop()
		for {
			heap := 0.0
			for _, d := range cl.daemons() {
				m, err := d.metrics(ctx)
				if err != nil {
					continue
				}
				heap += m["juryd_heap_inuse_bytes"] / (1 << 20)
				s.lagMax = max(s.lagMax, m["juryd_repl_lag_records"])
			}
			s.heapMax = max(s.heapMax, heap)
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *sampler) finish() {
	close(s.stop)
	<-s.done
}

// runTraced is the per-layer run: a short untraced baseline, then a
// traced phase with /metrics deltas, trace joins and the in-process
// layer pass.
func (b *bench) runTraced(ctx context.Context, spansDir string) (result, error) {
	cl, err := b.setup(ctx, false)
	if err != nil {
		return result{}, err
	}
	base := b.drive(ctx, cl, "warm", streamWarm, 0, warmOps[b.name])
	if base.firstErr == nil {
		base = b.drive(ctx, cl, "u", streamMeasure, secondsDur(b.seconds*untracedShare), 0)
	}
	cl.stop()
	if base.firstErr != nil {
		return result{}, fmt.Errorf("untraced baseline: %w", base.firstErr)
	}

	cl, err = b.setup(ctx, true)
	if err != nil {
		return result{}, err
	}
	defer cl.stop()
	warm := b.drive(ctx, cl, "warm", streamWarm, 0, warmOps[b.name])
	if warm.firstErr != nil {
		return result{}, fmt.Errorf("warm-up: %w", warm.firstErr)
	}
	m := metricSet{
		"wal.recovery_s": cl.primary.boot.Seconds(),
	}
	if cl.follower != nil {
		m["repl.bootstrap_s"] = cl.follower.boot.Seconds()
	}
	var inproc *inprocFollower
	if b.name == "ingest-fsync" {
		if inproc, err = startInprocFollower(ctx, cl.primary.url, filepath.Join(b.runDir, "inproc-follower"), b.flags.Durability); err != nil {
			return result{}, err
		}
		defer inproc.stop()
		if err := waitApplied(ctx, cl.primary, inproc, 30*time.Second); err != nil {
			return result{}, err
		}
	}
	before, err := b.snapshot(ctx, cl, inproc)
	if err != nil {
		return result{}, err
	}
	r0, d0 := b.tr.counts()
	smp := startSampler(ctx, cl)
	rec := b.drive(ctx, cl, "t", streamMeasure, secondsDur(b.seconds*(1-untracedShare)), 0)
	smp.finish()
	r1, d1 := b.tr.counts()
	after, err := b.snapshot(ctx, cl, inproc)
	if err != nil {
		return result{}, err
	}
	joined, err := b.joinTraces(ctx, cl, rec, spansDir)
	if err != nil {
		return result{}, err
	}
	b.layerMetrics(m, before, after, rec, smp)
	m["serve.retries"] = float64(r1 - r0)
	m["serve.redirects"] = float64(d1 - d0)
	m["serve.joined_traces"] = float64(len(joined))
	m["serve.client_overhead_ms_p50"] = median(joined)
	kind := mainKind[b.name]
	tp50, _ := percentile(msSorted(rec.lat[kind]), 50)
	up50, _ := percentile(msSorted(base.lat[kind]), 50)
	m["trace.overhead_ms_p50"] = tp50 - up50

	checkErr := b.check(ctx, cl, true, m, warm, rec)
	if checkErr == nil {
		checkErr = b.checkIsolation(m)
	}
	if checkErr != nil {
		fmt.Fprintln(os.Stderr, "jurybench: check failed:", checkErr)
	}
	attempted, failed := rec.totals()
	return result{
		Correct: checkErr == nil, Attempted: attempted, Failed: failed,
		Metrics: render(perLayer, m),
	}, nil
}

// waitApplied waits until the in-process follower holds everything the
// primary has journaled.
func waitApplied(ctx context.Context, p *daemon, f *inprocFollower, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		ps, err := p.client.Persistence(ctx)
		if err != nil {
			return err
		}
		if uint64(f.srv.AppliedLSN())+1 >= ps.NextLSN {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("in-process follower at lsn %d, primary next_lsn %d after %v", f.srv.AppliedLSN(), ps.NextLSN, limit)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// snap is the state the traced phase is measured between.
type snap struct {
	at       time.Time
	prom     []promText // per daemon, in cluster.daemons() order
	nextLSN  uint64     // primary
	walBytes int64      // primary
	syncs    int64      // in-process follower
	applied  uint64     // in-process follower
}

func (b *bench) snapshot(ctx context.Context, cl *cluster, inproc *inprocFollower) (snap, error) {
	s := snap{at: time.Now()}
	for _, d := range cl.daemons() {
		m, err := d.metrics(ctx)
		if err != nil {
			return s, err
		}
		s.prom = append(s.prom, m)
	}
	ps, err := cl.primary.client.Persistence(ctx)
	if err != nil {
		return s, err
	}
	s.nextLSN = ps.NextLSN
	if s.walBytes, err = cl.primary.walBytes(); err != nil {
		return s, err
	}
	if inproc != nil {
		s.syncs = inproc.fs.syncs.Load()
		s.applied = uint64(inproc.srv.AppliedLSN())
	}
	return s, nil
}

// layerMetrics derives the server, wal and repl layer metrics from the
// traced phase's /metrics deltas and samples.
func (b *bench) layerMetrics(m metricSet, before, after snap, rec *recorder, smp *sampler) {
	secs := after.at.Sub(before.at).Seconds()
	primary := after.prom[0].delta(before.prom[0])
	serving := primary
	if len(after.prom) > 1 {
		serving = after.prom[1].delta(before.prom[1])
	}

	m["server.selects_computed"] = serving["juryd_selections_computed_total"]
	m["server.evaluate_ms_p50"] = 1e3 * serving.stageQuantile("evaluate", 0.5)
	m["server.evaluate_ms_p99"] = 1e3 * serving.stageQuantile("evaluate", 0.99)
	hits, misses := serving["juryd_cache_hits_total"], serving["juryd_cache_misses_total"]
	m["server.cache_hit_rate"] = ratio(hits, hits+misses)
	m["server.cache_lookup_us_p50"] = 1e6 * serving.stageQuantile("cache_lookup", 0.5)
	m["server.encode_us_p50"] = 1e6 * serving.stageQuantile("encode", 0.5)
	m["server.unstaged_ms_mean"] = 1e3 * unstaged(serving, selectRoute[b.name], selectStages)
	m["server.apply_us_p50"] = 1e6 * primary.stageQuantile("apply", 0.5)
	gc := 0.0
	for i := range after.prom {
		gc += after.prom[i]["juryd_gc_pause_seconds_total"] - before.prom[i]["juryd_gc_pause_seconds_total"]
	}
	m["server.gc_pause_ms_per_s"] = 1e3 * gc / secs
	m["server.heap_inuse_mb_max"] = smp.heapMax

	m["wal.records_written"] = float64(after.nextLSN - before.nextLSN)
	m["wal.encode_us_p50"] = 1e6 * primary.stageQuantile("wal_encode", 0.5)
	m["wal.append_us_p50"] = 1e6 * primary.stageQuantile("wal_append", 0.5)
	m["wal.flush_wait_ms_p50"] = 1e3 * primary.stageQuantile("wal_flush", 0.5)
	m["wal.fsync_ms_p50"] = 1e3 * primary.stageQuantile("wal_fsync", 0.5)
	m["wal.fsync_ms_p99"] = 1e3 * primary.stageQuantile("wal_fsync", 0.99)
	m["wal.records_per_fsync"] = ratio(primary["juryd_wal_batch_records_sum"], primary["juryd_wal_batch_records_count"])
	votes := 0
	for _, t := range rec.acked {
		votes += t.votes
	}
	if votes > 0 {
		m["wal.bytes_per_vote"] = float64(after.walBytes-before.walBytes) / float64(votes)
	}

	if b.name == "ingest-fsync" {
		m["repl.quorum_wait_ms_mean"] = 1e3 * unstaged(primary, ingestRoute, ingestStages)
		m["repl.follower_syncs_per_record"] = ratio(float64(after.syncs-before.syncs), float64(after.applied-before.applied))
	}
	m["repl.lag_records_max"] = smp.lagMax
	m["repl.quorum_timeouts"] = primary["juryd_quorum_timeouts_total"]

	read := msSorted(rec.lat[opRead])
	p50, _ := percentile(read, 50)
	p99, _ := percentile(read, 99)
	m["serve.read_ms_p50"] = p50
	m["serve.read_ms_p99"] = p99
	// The workload's own p99 is a layer figure, not a gate: disk and CPU
	// stalls from outside the benchmark moved it by up to two thirds
	// between runs. It reads 0 when the traced phase has too few requests.
	m["serve.op_p99_ms"], _ = windowedP99(rec.lat[mainKind[b.name]])
}

// unstaged is a route's mean latency minus the per-request means of the
// stages it passes through, in seconds: time no stage span covers (HTTP
// read and JSON decode, and on a -quorum primary the follower-ack wait).
func unstaged(d promText, route string, stages []string) float64 {
	count, sum := d.routeCountSum(route)
	if count == 0 {
		return 0
	}
	staged := 0.0
	for _, s := range stages {
		staged += d.stageSum(s)
	}
	return (sum - staged) / count
}

// joinTraces matches the benchmark's client spans to the daemons' own
// traces by X-Request-Id, writes every span to the spans file, and
// returns the client-minus-server duration of each joined span in ms.
func (b *bench) joinTraces(ctx context.Context, cl *cluster, rec *recorder, dir string) ([]float64, error) {
	server := map[string]float64{}
	for _, d := range cl.daemons() {
		ring, err := d.traces(ctx, 256)
		if err != nil {
			return nil, err
		}
		for _, t := range append(ring.Recent, ring.Slowest...) {
			server[t.ID] = t.DurationSeconds * 1e3
		}
	}
	var over []float64
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for i := range rec.spans {
		if ms, ok := server[rec.spans[i].ID]; ok {
			rec.spans[i].ServerMs = ms
			over = append(over, rec.spans[i].DurMs-ms)
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	data, err := json.Marshal(rec.spans)
	if err != nil {
		return nil, err
	}
	return over, os.WriteFile(spansFile(dir, b.name, b.seed), data, 0o644)
}

// checkIsolation asserts the layer isolation each workload was designed
// for: a cache that select-128 never hits and ingest-fsync's reads always
// hit, no jq work on ingest-fsync, and no journal writes while selects
// are measured.
func (b *bench) checkIsolation(m metricSet) error {
	switch b.name {
	case "select-128":
		if m["server.cache_hit_rate"] > 0.01 {
			return fmt.Errorf("isolation: select-128 cache hit rate %v, want ≈0", m["server.cache_hit_rate"])
		}
	case "ingest-fsync":
		if m["server.cache_hit_rate"] < 0.99 {
			return fmt.Errorf("isolation: ingest-fsync read cache hit rate %v, want ≈1", m["server.cache_hit_rate"])
		}
		if m["server.selects_computed"] != 0 {
			return fmt.Errorf("isolation: ingest-fsync computed %v selects, so ran jq", m["server.selects_computed"])
		}
	}
	if b.name != "ingest-fsync" && m["wal.records_written"] != 0 {
		return fmt.Errorf("isolation: %s wrote %v WAL records while measured", b.name, m["wal.records_written"])
	}
	return nil
}
