// Command jurybench is the repository's end-to-end benchmark. It starts
// real juryd daemons on loopback, drives them with a closed loop of
// scripted clients through the jury/serve client, checks every answer it
// can against an in-process reference, and prints one JSON result line.
//
// Run it through run.sh, which builds juryd and this program first:
//
//	bash jurybench/run.sh --workload select-128 --seed 7 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics with tracing off in juryd;
// --trace 1 reports the per-layer metrics from a traced run. See
// README.md in this directory for the workloads and the metric map.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/jury/serve"
)

//go:embed daemons.json
var daemonsJSON []byte

// defaultAlpha is juryd's default prior, which every benchmark select
// uses.
const defaultAlpha = 0.5

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "jurybench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("jurybench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: select-128, multi-20x3 or ingest-fsync")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 30, "length of the measured phase")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	bin := fs.String("juryd", "", "juryd binary to benchmark")
	work := fs.String("work", "", "scratch directory for data directories, logs and span files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if _, ok := mainKind[*name]; !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *bin == "" || *work == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return errors.New("need -juryd, -work, a positive -seconds and -trace 0 or 1")
	}
	var flags daemonFlags
	if err := json.Unmarshal(daemonsJSON, &flags); err != nil {
		return fmt.Errorf("daemons.json: %w", err)
	}
	b := &bench{
		name: *name, seed: *seed, seconds: *seconds,
		bin: *bin, flags: flags, tr: newCountingTransport(),
		runDir: filepath.Join(*work, fmt.Sprintf("%s-seed%d-pid%d", *name, *seed, os.Getpid())),
	}
	defer b.tr.close()
	if err := os.MkdirAll(b.runDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(b.runDir)
	b.selPool, b.selIDs = asPool(binaryPool(b.seed, selectPoolSize, "w"))
	var err error
	if b.mPool, b.mIDs, err = asMultiPool(multiPoolSpecs(b.seed)); err != nil {
		return err
	}
	b.quiet = quietIDs(b.seed)
	if b.name == "ingest-fsync" {
		if err := b.prebuild(ctx); err != nil {
			return fmt.Errorf("seeded journal: %w", err)
		}
	}
	var res result
	if *trace == 1 {
		res, err = b.runTraced(ctx, filepath.Join(*work, "spans"))
	} else {
		res, err = b.runTimed(ctx)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// warmOps is how many scripted requests each client sends before the
// measured phase: enough to open connections and, on ingest-fsync, to
// fill the follower's cache with every read budget.
var warmOps = map[string]int{"select-128": 3, "multi-20x3": 2, "ingest-fsync": 4 * len(readBudgets)}

// runTimed is the end-to-end run: tracing off, setup repeated for a
// steady setup_s, one measured phase on the last cluster.
func (b *bench) runTimed(ctx context.Context) (result, error) {
	var cl *cluster
	defer func() { cl.stop() }()
	// A setup counts up to the first answered requests: spawn and
	// recovery alone take a few milliseconds, dominated by process start,
	// whose cost swung by a third with the load of the shared machine.
	var setups []float64
	var warm *recorder
	for range setupReps {
		cl.stop()
		var err error
		if cl, err = b.setup(ctx, false); err != nil {
			return result{}, err
		}
		warm = b.drive(ctx, cl, "warm", streamWarm, 0, warmOps[b.name])
		if warm.firstErr != nil {
			return result{}, fmt.Errorf("warm-up: %w", warm.firstErr)
		}
		setups = append(setups, (cl.setup + warm.elapsed).Seconds())
	}
	cpu0, err := cpuSum(cl.daemons())
	if err != nil {
		return result{}, err
	}
	smp := sampleRSS(cl.daemons())
	rec := b.drive(ctx, cl, "m", streamMeasure, secondsDur(b.seconds), 0)
	rss, err := smp.finish()
	if err != nil {
		return result{}, err
	}
	cpu1, err := cpuSum(cl.daemons())
	if err != nil {
		return result{}, err
	}
	checkErr := b.check(ctx, cl, false, metricSet{}, warm, rec)
	if checkErr != nil {
		fmt.Fprintln(os.Stderr, "jurybench: check failed:", checkErr)
	}
	m := metricSet{"setup_s": median(setups), "rss_mb": rss}
	if err := opMetrics(m, rec, mainKind[b.name]); err != nil {
		return result{}, err
	}
	attempted, failed := rec.totals()
	m["cpu_ms_per_op"] = 1e3 * (cpu1 - cpu0) / float64(max(attempted-failed, 1))
	return result{
		Correct: checkErr == nil, Attempted: attempted, Failed: failed,
		Metrics: render(endToEnd, m),
	}, nil
}

// opMetrics fills the latency and throughput of one request class.
func opMetrics(m metricSet, rec *recorder, kind opKind) error {
	lat := msSorted(rec.lat[kind])
	p50, _ := percentile(lat, 50)
	p90, ok := percentile(lat, 90)
	if !ok {
		return fmt.Errorf("%d %s samples are too few for p90 (need %d); raise --seconds", len(lat), kind, 10*minBeyond)
	}
	m["op_p50_ms"] = p50
	m["op_p90_ms"] = p90
	m["ops_per_s"] = float64(len(lat)) / rec.elapsed.Seconds()
	return nil
}

// check runs the workload's correctness checks on a drained cluster.
// recs are every phase driven on this cluster, oldest first.
func (b *bench) check(ctx context.Context, cl *cluster, layered bool, out metricSet, recs ...*recorder) error {
	rec := recs[len(recs)-1]
	switch b.name {
	case "select-128":
		if len(rec.binary) == 0 {
			return errors.New("no select sampled")
		}
		return binaryPass(b.selPool, b.selIDs, rec.binary, defaultAlpha, layered, out)
	case "multi-20x3":
		if len(rec.multi) == 0 {
			return errors.New("no multi select sampled")
		}
		prior := []float64{1.0 / 3, 1.0 / 3, 1.0 / 3}
		for k, s := range rec.multi {
			if err := checkMultiBounds(b.mPool, b.mIDs, prior, s.budget, s.resp); err != nil {
				return fmt.Errorf("seed %d: %w", s.seed, err)
			}
			if k >= 4 {
				continue
			}
			seed := s.seed
			again, err := cl.primary.client.MultiSelect(ctx, multiPoolName, serve.MultiSelectRequest{Budget: s.budget, Seed: &seed})
			if err != nil {
				return fmt.Errorf("repeat seed %d: %w", seed, err)
			}
			if err := checkMultiSame(s.resp, again); err != nil {
				return fmt.Errorf("repeat of seed %d: %w", seed, err)
			}
		}
		return multiPass(b.mPool, b.mIDs, rec.multi, layered, 2, out)
	case "ingest-fsync":
		if rec.readErr != nil {
			return rec.readErr
		}
		want := map[string]tally{}
		for id, t := range b.preVotes {
			want[id] = t
		}
		for _, r := range recs {
			if r.failed[opIngest] > 0 {
				return fmt.Errorf("%d ingests failed: the ledger cannot tell whether they applied", r.failed[opIngest])
			}
			for id, t := range r.acked {
				w := want[id]
				want[id] = tally{w.votes + t.votes, w.correct + t.correct}
			}
		}
		if err := waitConverged(ctx, cl.primary, cl.follower, 30*time.Second); err != nil {
			return err
		}
		ps, err := cl.primary.client.Persistence(ctx)
		if err != nil {
			return err
		}
		fs, err := cl.follower.client.Persistence(ctx)
		if err != nil {
			return err
		}
		if err := checkConverged(ps, fs); err != nil {
			return err
		}
		for _, d := range []struct {
			node string
			dm   *daemon
		}{{"primary", cl.primary}, {"follower", cl.follower}} {
			list, err := d.dm.client.Workers(ctx)
			if err != nil {
				return err
			}
			if err := checkLedger(d.node, want, list.Workers); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("no checks for %q", b.name)
}

// spansFile names where a traced run writes its client spans.
func spansFile(dir, workload string, seed int64) string {
	return filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
}
