package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/jury/serve"
)

// daemonFlags is daemons.json: every juryd flag the benchmark passes,
// kept as data so a change to the daemon's flag surface (say, dropping
// -group-commit) edits one file and no Go code.
type daemonFlags struct {
	Durability []string                       `json:"durability"`
	Untraced   []string                       `json:"untraced"`
	Traced     []string                       `json:"traced"`
	Prebuild   []string                       `json:"prebuild"`
	Workloads  map[string]map[string][]string `json:"workloads"`
}

// args assembles the flag list of one role ("primary" or "follower") of
// a workload's cluster.
func (f daemonFlags) args(workload, role string, traced bool) ([]string, error) {
	roles, ok := f.Workloads[workload]
	if !ok {
		return nil, fmt.Errorf("daemons.json: no workload %q", workload)
	}
	extra, ok := roles[role]
	if !ok {
		return nil, fmt.Errorf("daemons.json: workload %q has no %s", workload, role)
	}
	out := append([]string{}, f.Durability...)
	if traced {
		out = append(out, f.Traced...)
	} else {
		out = append(out, f.Untraced...)
	}
	return append(out, extra...), nil
}

// daemon is one juryd child process listening on a loopback port.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	dir  string
	done chan struct{} // closed once the process has been reaped
	// boot is the time from spawn to the listening banner: recovery (or
	// follower bootstrap) plus process start.
	boot time.Duration
	// client talks to this node alone, without retries, for checks and
	// scrapes.
	client *serve.Client
}

// startDaemon spawns juryd on a free loopback port with the given data
// directory and flags and waits for its listening banner. The child is
// killed if the benchmark itself dies.
func startDaemon(ctx context.Context, bin, dir string, args []string) (*daemon, error) {
	logf, err := os.Create(dir + ".log")
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	argv := append([]string{"-addr", "127.0.0.1:0", "-data-dir", dir}, args...)
	cmd := exec.Command(bin, argv...)
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start juryd: %w", err)
	}
	d := &daemon{cmd: cmd, dir: dir, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		// Drain stdout for the process lifetime so juryd never blocks on a
		// full pipe; only the banner matters.
		sc := bufio.NewScanner(stdout)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if a, ok := strings.CutPrefix(line, "juryd: listening on "); ok && !sent {
				addr <- a
				sent = true
			}
		}
		io.Copy(io.Discard, stdout)
		cmd.Wait()
		close(d.done)
	}()
	select {
	case a := <-addr:
		d.boot = time.Since(start)
		d.url = "http://" + a
	case <-d.done:
		return nil, fmt.Errorf("juryd exited before listening; see %s.log", dir)
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, fmt.Errorf("juryd did not listen within 60s; see %s.log", dir)
	case <-ctx.Done():
		d.kill()
		return nil, ctx.Err()
	}
	d.client = serve.NewClient(d.url).WithRetry(serve.RetryPolicy{MaxAttempts: 1}).
		WithHTTPClient(&http.Client{Timeout: 30 * time.Second})
	return d, nil
}

// kill sends SIGKILL and waits until the process has been reaped. It is
// safe to call more than once.
func (d *daemon) kill() {
	if d == nil {
		return
	}
	select {
	case <-d.done:
		return
	default:
	}
	d.cmd.Process.Kill()
	<-d.done
}

// rssMB reads the process's current resident set (VmRSS) in MiB.
func (d *daemon) rssMB() (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(d.cmd.Process.Pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmRSS in /proc status")
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux architecture Go supports.
const clockTicks = 100

// cpuSeconds reads the user plus system CPU time the process has used.
func (d *daemon) cpuSeconds() (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(d.cmd.Process.Pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is field 3,
	// utime field 14 and stime field 15.
	i := strings.LastIndexByte(string(data), ')')
	f := strings.Fields(string(data[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	var ticks float64
	for _, s := range f[11:13] {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, err
		}
		ticks += v
	}
	return ticks / clockTicks, nil
}

// cpuSum is the CPU time the daemons have used so far.
func cpuSum(daemons []*daemon) (float64, error) {
	total := 0.0
	for _, d := range daemons {
		v, err := d.cpuSeconds()
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

// rssSampler sums the daemons' resident sets every 100ms while a phase
// runs. Its median is the memory figure: the peak (VmHWM) of a Go heap
// depends on where garbage collections happen to fall, and varied by a
// quarter between runs of one workload.
type rssSampler struct {
	stop, done chan struct{}
	samples    []float64
	err        error
}

func sampleRSS(daemons []*daemon) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			sum := 0.0
			for _, d := range daemons {
				v, err := d.rssMB()
				if err != nil {
					s.err = err
					return
				}
				sum += v
			}
			s.samples = append(s.samples, sum)
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops sampling and returns the median sum in MiB.
func (s *rssSampler) finish() (float64, error) {
	close(s.stop)
	<-s.done
	return median(s.samples), s.err
}

// metrics scrapes and parses the daemon's /metrics.
func (d *daemon) metrics(ctx context.Context) (promText, error) {
	text, err := d.client.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	return parseProm(text), nil
}

// traces fetches the daemon's trace ring.
func (d *daemon) traces(ctx context.Context, n int) (traceRing, error) {
	var out traceRing
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/debug/traces?n="+strconv.Itoa(n), nil)
	if err != nil {
		return out, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("GET /debug/traces: %s", resp.Status)
	}
	return out, json.NewDecoder(resp.Body).Decode(&out)
}

// walBytes sums the sizes of the daemon's WAL segment files.
func (d *daemon) walBytes() (int64, error) {
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), "wal-") {
			continue
		}
		info, err := os.Stat(filepath.Join(d.dir, e.Name()))
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}

// traceRing is the part of GET /debug/traces the benchmark joins on.
type traceRing struct {
	Recent  []serverTrace `json:"recent"`
	Slowest []serverTrace `json:"slowest"`
}

type serverTrace struct {
	ID              string  `json:"id"`
	DurationSeconds float64 `json:"duration_seconds"`
}
