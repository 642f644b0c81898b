package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/multichoice"
	"repro/internal/worker"
	"repro/jury/serve"
)

// setupReps is how many times an untraced run sets its cluster up; it
// reports the median and measures on the last one.
const setupReps = 9

// mainKind is the request class a workload's end-to-end latency and
// throughput describe.
var mainKind = map[string]opKind{
	"select-128":   opSelect,
	"multi-20x3":   opMulti,
	"ingest-fsync": opIngest,
}

// bench is one benchmark run: one workload, one seed.
type bench struct {
	name     string
	seed     int64
	seconds  float64
	bin      string
	runDir   string
	flags    daemonFlags
	setups   int // clusters started so far, names their directories
	tr       *countingTransport
	selPool  worker.Pool
	selIDs   []string
	mPool    multichoice.Pool
	mIDs     []string
	quiet    []string
	preDir   string           // ingest-fsync: the seeded journal
	preVotes map[string]tally // ingest-fsync: what the seeded journal holds
}

// cluster is the set of daemons one setup started.
type cluster struct {
	primary  *daemon
	follower *daemon // ingest-fsync only
	client   *serve.Client
	setup    time.Duration // spawn to ready, excluding copying the seeded journal
}

func (c *cluster) stop() {
	if c == nil {
		return
	}
	c.follower.kill()
	c.primary.kill()
}

func (c *cluster) daemons() []*daemon {
	if c.follower != nil {
		return []*daemon{c.primary, c.follower}
	}
	return []*daemon{c.primary}
}

// setup starts the workload's daemons over fresh data directories and
// loads the workload's state into them.
func (b *bench) setup(ctx context.Context, traced bool) (*cluster, error) {
	b.setups++
	dir := filepath.Join(b.runDir, fmt.Sprintf("setup%d", b.setups))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	pdir := filepath.Join(dir, "primary")
	if b.preDir != "" {
		if err := copyDir(b.preDir, pdir); err != nil {
			return nil, fmt.Errorf("copy seeded journal: %w", err)
		}
	}
	pargs, err := b.flags.args(b.name, "primary", traced)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	cl := &cluster{}
	if cl.primary, err = startDaemon(ctx, b.bin, pdir, pargs); err != nil {
		return nil, err
	}
	switch b.name {
	case "select-128":
		err = cl.primary.client.RegisterWorkers(ctx, binaryPool(b.seed, selectPoolSize, "w"))
	case "multi-20x3":
		_, err = cl.primary.client.CreateMultiPool(ctx, serve.MultiCreateRequest{
			Name: multiPoolName, Labels: multiLabels, Workers: multiPoolSpecs(b.seed),
		})
	case "ingest-fsync":
		var fargs []string
		if fargs, err = b.flags.args(b.name, "follower", traced); err == nil {
			fargs = append(fargs, "-follow", cl.primary.url)
			cl.follower, err = startDaemon(ctx, b.bin, filepath.Join(dir, "follower"), fargs)
		}
		if err == nil {
			err = waitConverged(ctx, cl.primary, cl.follower, 60*time.Second)
		}
	}
	if err != nil {
		cl.stop()
		return nil, fmt.Errorf("setup %s: %w", b.name, err)
	}
	cl.setup = time.Since(start)
	hc := &http.Client{Transport: b.tr, Timeout: 60 * time.Second}
	cl.client = serve.NewClient(cl.primary.url).WithHTTPClient(hc)
	if cl.follower != nil {
		cl.client.WithReplicas(cl.follower.url)
	}
	return cl, nil
}

// waitConverged polls until the follower has applied everything the
// primary has journaled.
func waitConverged(ctx context.Context, p, f *daemon, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		ps, err := p.client.Persistence(ctx)
		if err != nil {
			return err
		}
		fs, err := f.client.Persistence(ctx)
		if err != nil {
			return err
		}
		if fs.NextLSN == ps.NextLSN && ps.NextLSN > 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower at next_lsn %d, primary at %d after %v", fs.NextLSN, ps.NextLSN, limit)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// prebuild writes ingest-fsync's seeded journal once per run: a primary
// started with the "prebuild" flags ingests 20,000 votes in keyed
// batches and is killed with SIGKILL, leaving a WAL and no snapshot for
// every setup to recover from.
func (b *bench) prebuild(ctx context.Context) error {
	b.preDir = filepath.Join(b.runDir, "seeded")
	d, err := startDaemon(ctx, b.bin, b.preDir, b.flags.Prebuild)
	if err != nil {
		return err
	}
	defer d.kill()
	specs := binaryPool(b.seed, ingestPoolSize, "w")
	if err := d.client.RegisterWorkers(ctx, specs); err != nil {
		return err
	}
	b.preVotes = map[string]tally{}
	for _, s := range specs {
		b.preVotes[s.ID] = tally{}
	}
	batches := prebuildVotes(b.seed)
	for _, batch := range batches {
		for _, v := range batch {
			t := b.preVotes[v.WorkerID]
			t.votes++
			if v.Correct {
				t.correct++
			}
			b.preVotes[v.WorkerID] = t
		}
	}
	const senders = 4
	errs := make([]error, senders)
	var wg sync.WaitGroup
	for s := range senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := s; i < len(batches) && errs[s] == nil; i += senders {
				key := fmt.Sprintf("pre-%d-%d", b.seed, i)
				_, errs[s] = d.client.IngestVotesKeyed(ctx, batches[i], key)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// copyDir copies a flat directory tree of regular files.
func copyDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, e := range entries {
		from, to := filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())
		if e.IsDir() {
			if err := copyDir(from, to); err != nil {
				return err
			}
			continue
		}
		if err := copyFile(from, to); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(from, to string) error {
	in, err := os.Open(from)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(to)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
