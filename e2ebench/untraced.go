package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"netclus/internal/core"
	"netclus/internal/dataset"
	"netclus/internal/engine"
	"netclus/internal/tops"
)

func loadDataset() (*tops.Instance, error) {
	d, err := dataset.Load(dataset.Preset(preset), dataset.Config{Scale: scale, Seed: datasetSeed})
	if err != nil {
		return nil, err
	}
	return d.Instance, nil
}

func serverArgs() []string {
	return []string{"-preset", preset, "-scale", strconv.FormatFloat(scale, 'g', -1, 64), "-seed", strconv.FormatInt(datasetSeed, 10)}
}

// topology is the set of running server processes of one workload.
type topology struct {
	front   *proc   // what the generator talks to
	servers []*proc // every server process, the front included
}

// boot launches the workload's processes and waits until every tier
// answers /healthz; setup time runs from the first launch to that point.
// A non-empty walDir makes the single server log there.
func boot(ctx context.Context, e *env, w workload, walDir string) (*topology, time.Duration, error) {
	serve := filepath.Join(e.bin, "topsserve")
	t0 := time.Now()
	t := &topology{}
	switch {
	case w.routed:
		var urls []string
		for j := 0; j < 2; j++ {
			p, err := e.ps.start(serve, fmt.Sprintf("member%d", j), e.work,
				append(serverArgs(), "-shards", "2", "-shard-index", strconv.Itoa(j))...)
			if err != nil {
				return nil, 0, err
			}
			t.servers = append(t.servers, p)
			urls = append(urls, p.url())
		}
		for _, p := range t.servers {
			if err := waitHealthy(ctx, p); err != nil {
				return nil, 0, err
			}
		}
		r, err := e.ps.start(filepath.Join(e.bin, "topsrouter"), "router", e.work, "-shard", urls[0], "-shard", urls[1])
		if err != nil {
			return nil, 0, err
		}
		t.front = r
		t.servers = append(t.servers, r)
	default:
		args := serverArgs()
		if walDir != "" {
			args = append(args, "-wal-dir", walDir)
		}
		p, err := e.ps.start(serve, "topsserve", e.work, args...)
		if err != nil {
			return nil, 0, err
		}
		t.front = p
		t.servers = []*proc{p}
	}
	if err := waitHealthy(ctx, t.front); err != nil {
		return nil, 0, err
	}
	return t, time.Since(t0), nil
}

// singleProcessAnswers returns the digest of every mix answer of an
// in-process engine over the dataset: the same engine code a single
// topsserve runs.
func singleProcessAnswers(ctx context.Context, inst *tops.Instance) (map[string]string, error) {
	idx, err := core.Build(inst, core.Options{})
	if err != nil {
		return nil, err
	}
	eng, err := engine.New(idx, engine.Options{})
	if err != nil {
		return nil, err
	}
	ref := map[string]string{}
	for _, q := range queryMix() {
		res, err := eng.Query(ctx, q.options())
		if err != nil {
			return nil, err
		}
		sites := make([]int64, len(res.Sites))
		for i, v := range res.Sites {
			sites[i] = int64(v)
		}
		ref[string(q.body())] = digest(sites, res.EstimatedUtility)
		res.Release()
	}
	return ref, nil
}

func (q mixQuery) options() core.QueryOptions {
	pref := tops.Binary(q.Tau)
	if q.Pref == "linear" {
		pref = tops.Linear(q.Tau)
	}
	return core.QueryOptions{K: q.K, Pref: pref}
}

// warmUp sends every mix query once in order and once more from nproc
// concurrent clients, so connections are open and the mix's cover fills
// are done before any timed window.
func warmUp(ctx context.Context, d *workloadRun, nproc int) {
	for range d.mix {
		d.exec(ctx, op{}, time.Now())
	}
	openLoop(ctx, make([]op, len(d.mix)), nproc, d.rec, d.execFn(ctx))
}

// fillPool ingests until idPool trajectories are available for deletes,
// outside any timed window.
func fillPool(ctx context.Context, d *workloadRun) {
	for d.poolSize() < idPool && ctx.Err() == nil {
		before := d.rec.failed
		d.ingest(ctx, time.Now())
		if d.rec.failed > before {
			return
		}
	}
}

// runPhases runs the workload's timed rounds through d and reports the
// query metrics, and the update and ingest metrics of a workload that
// writes. It returns the operations attempted.
func runPhases(ctx context.Context, e *env, w workload, d *workloadRun, rep *report) int {
	exec := d.execFn(ctx)
	open, closed := newRecorder(), newRecorder()
	round := e.seconds / rounds
	openDur := time.Duration(openShare * float64(round))
	var closedDur time.Duration
	// use tops up the ids deletes consume, outside the timed window, then
	// points d at rec.
	use := func(rec *recorder) {
		if w.rates.delete > 0 {
			d.rec = newRecorder()
			fillPool(ctx, d)
			rep.absorb(d.rec)
		}
		d.rec = rec
	}
	for i := 0; i < rounds; i++ {
		use(open)
		openLoop(ctx, schedule(openDur, w.rates), e.nproc, open, exec)
		use(closed)
		closedDur += closedLoop(ctx, schedule(10*time.Second, w.rates), round-openDur, e.nproc, exec)
	}
	rep.note("open loop: %.1f ops/s; closed loop: %.1f ops/s",
		float64(open.attempted)/(rounds*openDur).Seconds(), float64(closed.attempted)/closedDur.Seconds())
	rep.lag("open", open)
	rep.add("query_qps", float64(len(closed.lat["query"]))/closedDur.Seconds(), "1/s")
	rep.percentiles(open, "query", 0.99, "p99", true)
	if w.rates.flip > 0 || w.rates.delete > 0 {
		rep.percentiles(open, "update", 0.99, "p99", false)
	}
	if w.rates.ingest > 0 {
		rep.percentiles(open, "ingest", 0.9, "p90", false)
		rep.note("ingest: %d of %d lines applied; %d deletes found no id",
			open.counts["ingest_applied"], open.counts["ingest_lines"], open.skipped)
	}
	rep.absorb(open)
	rep.absorb(closed)
	return open.attempted + closed.attempted
}

// runUntraced measures one workload end to end on real processes.
func runUntraced(ctx context.Context, e *env, w workload) (*report, error) {
	rep := newReport()
	inst, err := loadDataset()
	if err != nil {
		return nil, err
	}
	// Routed answers must equal the single-process ones. Read-only answers
	// must also repeat bit-identically per query, which is all the
	// interactive run checks.
	var ref map[string]string
	if w.routed {
		if ref, err = singleProcessAnswers(ctx, inst); err != nil {
			return nil, err
		}
		rep.note("routed answers are compared with those of an in-process single engine")
	}
	var walDir string
	if w.wal {
		if walDir, err = os.MkdirTemp(filepath.Join(e.work, "tmp"), "wal-"); err != nil {
			return nil, err
		}
		// Runs on every return, a failed or interrupted boot included. The
		// server must be gone before its log directory is removed.
		defer func() {
			e.ps.stopAll()
			if err := os.RemoveAll(walDir); err != nil {
				fmt.Fprintln(os.Stderr, "e2ebench: removing WAL dir:", err)
			}
		}()
	}
	d := newWorkloadRun(client{}, inst, e.seed)
	d.readOnly = !w.wal
	d.ref = ref
	// The generator's own collections would land inside measured
	// latencies; a run allocates far less than this limit. The reference
	// engine above is garbage by now and goes first.
	runtime.GC()
	debug.SetGCPercent(-1)
	debug.SetMemoryLimit(256 << 20)

	top, setup, err := boot(ctx, e, w, walDir)
	if err != nil {
		return nil, err
	}
	rep.add("setup_s", setup.Seconds(), "s")

	d.c = client{base: top.front.url(), hc: newHTTPClient(e.nproc, nil)}
	warmUp(ctx, d, e.nproc)
	rep.absorb(d.rec)

	cpu0, err := cpuTimes(top.servers)
	if err != nil {
		return nil, err
	}
	busy0, steal0, err := hostTicks()
	if err != nil {
		return nil, err
	}
	ops := runPhases(ctx, e, w, d, rep)
	cpu1, err := cpuTimes(top.servers)
	if err != nil {
		return nil, err
	}
	busy1, steal1, err := hostTicks()
	if err != nil {
		return nil, err
	}
	rep.note("host: %.1f%% of CPU time stolen by other guests during the timed phases",
		100*float64(steal1-steal0)/float64(max(busy1-busy0+steal1-steal0, 1)))
	var rss int64
	for i, p := range top.servers {
		hwm, err := peakRSS(p.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		rss += hwm
		rep.note("proc %s: cpu %.3f ms/op over %d timed ops, VmHWM %.1f MB", p.name,
			ms(cpu1[i]-cpu0[i])/float64(max(ops, 1)), ops, float64(hwm)/(1<<20))
	}
	rep.add("peak_rss_mb", float64(rss)/(1<<20), "MB")
	return rep, nil
}

func cpuTimes(ps []*proc) ([]time.Duration, error) {
	out := make([]time.Duration, len(ps))
	for i, p := range ps {
		t, err := cpuTime(p.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		out[i] = t
	}
	return out, nil
}
