package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"netclus/internal/core"
	"netclus/internal/engine"
	"netclus/internal/ingest"
	"netclus/internal/mapmatch"
	"netclus/internal/router"
	"netclus/internal/server"
	"netclus/internal/shard"
	"netclus/internal/tops"
	"netclus/internal/wal"
)

// tier is one in-process HTTP server on a loopback port.
type tier struct {
	addr string
	srv  *http.Server
	stop func() // the serving layer's own Close, when it has one
	done chan struct{}
}

func listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

func serveOn(ln net.Listener, h http.Handler, stop func()) *tier {
	t := &tier{addr: ln.Addr().String(), srv: &http.Server{Handler: h}, stop: stop, done: make(chan struct{})}
	go func() {
		defer close(t.done)
		_ = t.srv.Serve(ln)
	}()
	return t
}

func (t *tier) url() string { return "http://" + t.addr }

// closeTiers stops every in-process server and waits until it has exited.
func closeTiers(ts []*tier) {
	for _, t := range ts {
		_ = t.srv.Close()
		<-t.done
		if t.stop != nil {
			t.stop()
		}
	}
}

// newServer mounts s behind a span-recording handler on a fresh port.
func newServer(ln net.Listener, eng server.Engine, opts server.Options, t *tracer, name, parent string) (*tier, error) {
	s, err := server.New(eng, opts)
	if err != nil {
		return nil, err
	}
	return serveOn(ln, &tracedHandler{inner: s, t: t, name: name, parent: parent, where: ln.Addr().String()}, s.Close), nil
}

// runTraced hosts every topology in-process through the public
// constructors, with the benchmark's wrappers recording spans at each layer
// boundary, and reports the per-layer metrics. The result must carry every
// per-layer metric, so all three topologies run in every traced run, each
// for a share of --seconds, whichever workload was named.
func runTraced(ctx context.Context, e *env, w workload) (*report, error) {
	rep := newReport()
	inst, err := loadDataset()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	idx, err := core.Build(inst, core.Options{})
	if err != nil {
		return nil, err
	}
	rep.add("core.build_s", time.Since(t0).Seconds(), "s")
	rep.add("core.index_mb", float64(idx.MemoryBytes())/(1<<20), "MB")
	if err := coreArm(ctx, idx, rep); err != nil {
		return nil, err
	}

	// Every shard build reads the dataset before the churn phase mutates it.
	sopts := shard.Options{Shards: 2}
	members := make([]*shard.Member, 2)
	for j := range members {
		if members[j], err = shard.BuildMember(inst, j, sopts); err != nil {
			return nil, err
		}
	}
	sharded, err := shard.Build(inst, sopts)
	if err != nil {
		return nil, err
	}
	if err := shardedArm(ctx, sharded, rep); err != nil {
		return nil, err
	}
	feed := makeFeed(inst, e.seed, 64)
	mapmatchArm(ctx, inst, feed, rep)

	eng, err := engine.New(idx, engine.Options{})
	if err != nil {
		return nil, err
	}
	var all []*tracer
	var tiers []*tier
	defer func() { closeTiers(tiers) }()
	var lagP99 float64
	share := func(f float64) time.Duration { return time.Duration(f * float64(e.seconds)) }
	base := workloadByName("interactive")

	// Interactive: the engine behind two servers, one plain and one with
	// the span wrappers. Short slices alternate between them (plain,
	// traced, traced, plain, ...) so that drift of the host cancels out of
	// the tracing overhead.
	ln, err := listen()
	if err != nil {
		return nil, err
	}
	plainSrv, err := server.New(eng, server.Options{Ingest: &ingest.Options{}})
	if err != nil {
		return nil, err
	}
	tp := serveOn(ln, plainSrv, plainSrv.Close)
	tiers = append(tiers, tp)
	trI := &tracer{}
	if ln, err = listen(); err != nil {
		return nil, err
	}
	ti, err := newServer(ln, wrapEngine(eng, trI, ln.Addr().String()), server.Options{Ingest: &ingest.Options{}}, trI, "server.http", "")
	if err != nil {
		return nil, err
	}
	tiers = append(tiers, ti)
	var traceSeq atomic.Int64
	dP := newWorkloadRun(client{base: tp.url(), hc: newHTTPClient(e.nproc, nil)}, inst, e.seed)
	dI := newWorkloadRun(client{base: ti.url(), hc: newHTTPClient(e.nproc, nil), trace: &traceSeq}, inst, e.seed)
	for _, d := range []*workloadRun{dP, dI} {
		d.readOnly = true
		warmUp(ctx, d, e.nproc)
		rep.absorb(d.rec)
	}
	read := base.rates
	plain, traced := newRecorder(), newRecorder()
	dP.rec, dI.rec = plain, traced
	st0 := eng.Stats()
	cpu0, err := cpuTime(os.Getpid())
	if err != nil {
		return nil, err
	}
	for i := 0; i < 8; i++ {
		slice := schedule(share(0.05), read)
		if (i+1)%4 < 2 { // plain at 0, 3, 4, 7
			openLoop(ctx, slice, e.nproc, plain, dP.execFn(ctx))
			continue
		}
		trI.on.Store(true)
		openLoop(ctx, slice, e.nproc, traced, dI.execFn(ctx))
		trI.on.Store(false)
	}
	cpu1, err := cpuTime(os.Getpid())
	if err != nil {
		return nil, err
	}
	st1 := eng.Stats()
	rep.absorb(plain)
	rep.absorb(traced)
	all = append(all, trI)
	lagP99 = max(rep.lag("interactive plain", plain), rep.lag("interactive traced", traced))
	rep.add("trace.overhead_ms_p50", quantile(traced.lat["query"], 0.5)-quantile(plain.lat["query"], 0.5), "ms")
	rep.add("proc.cpu_ms_per_op", ms(cpu1-cpu0)/float64(max(plain.attempted+traced.attempted, 1)), "ms")
	serverMetrics(trI, rep)
	engineQueryMetrics(trI, st0, st1, rep)

	// Routed: a router over two member servers, compared with the answers
	// the single engine just gave.
	trR := &tracer{}
	var urls [][]string
	for j, m := range members {
		ln, err := listen()
		if err != nil {
			return nil, err
		}
		where := ln.Addr().String()
		tm, err := newServer(ln, wrapEngine(m, trR, where),
			server.Options{Member: wrapMember(m, trR, where), Ingest: &ingest.Options{}}, trR, "member.http", "router.rt")
		if err != nil {
			return nil, fmt.Errorf("member %d: %w", j, err)
		}
		tiers = append(tiers, tm)
		urls = append(urls, []string{tm.url()})
	}
	rt, err := router.New(router.Options{Shards: urls, Client: &http.Client{Transport: &tracedTransport{inner: http.DefaultTransport.(*http.Transport).Clone(), t: trR}}})
	if err != nil {
		return nil, err
	}
	ln, err = listen()
	if err != nil {
		return nil, err
	}
	tr := serveOn(ln, &tracedHandler{inner: rt, t: trR, name: "router.http", where: ln.Addr().String()}, nil)
	tiers = append(tiers, tr)
	dR := newWorkloadRun(client{base: tr.url(), hc: newHTTPClient(e.nproc, nil), trace: &traceSeq}, inst, e.seed)
	dR.readOnly = true
	dR.ref = dI.digests()
	warmUp(ctx, dR, e.nproc)
	rep.absorb(dR.rec)
	recR := newRecorder()
	dR.rec = recR
	trR.on.Store(true)
	openLoop(ctx, schedule(share(0.3), workloadByName("routed").rates), e.nproc, recR, dR.execFn(ctx))
	trR.on.Store(false)
	rep.absorb(recR)
	all = append(all, trR)
	lagP99 = max(lagP99, rep.lag("routed", recR))
	routerMetrics(trR, rep)

	// Churn: the same engine, now logging to a WAL, behind a fresh server.
	dir, err := os.MkdirTemp(filepath.Join(e.work, "tmp"), "wal-")
	if err != nil {
		return nil, err
	}
	log, err := wal.Open(dir, wal.Options{Policy: wal.SyncEveryInterval, Interval: 100 * time.Millisecond})
	if err != nil {
		_ = os.RemoveAll(dir)
		return nil, err
	}
	// The servers stop before their log closes and its directory goes.
	defer func() {
		closeTiers(tiers)
		tiers = nil
		if err := log.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench: closing WAL:", err)
		}
		if err := os.RemoveAll(dir); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench: removing WAL dir:", err)
		}
	}()
	if err := eng.AttachWAL(log); err != nil {
		return nil, err
	}
	if err := eng.BeginEpoch(1); err != nil {
		return nil, err
	}
	trC := &tracer{}
	ln, err = listen()
	if err != nil {
		return nil, err
	}
	tc, err := newServer(ln, wrapEngine(eng, trC, ln.Addr().String()), server.Options{Log: log, Ingest: &ingest.Options{}}, trC, "server.http", "")
	if err != nil {
		return nil, err
	}
	tiers = append(tiers, tc)
	dC := newWorkloadRun(client{base: tc.url(), hc: newHTTPClient(e.nproc, nil), trace: &traceSeq}, inst, e.seed)
	fillPool(ctx, dC)
	rep.absorb(dC.rec)
	recC := newRecorder()
	dC.rec = recC
	st0, wal0 := eng.Stats(), log.Stats()
	c0 := time.Now()
	trC.on.Store(true)
	openLoop(ctx, schedule(share(0.3), workloadByName("churn").rates), e.nproc, recC, dC.execFn(ctx))
	trC.on.Store(false)
	elapsed := time.Since(c0)
	st1, wal1 := eng.Stats(), log.Stats()
	rep.absorb(recC)
	all = append(all, trC)
	lagP99 = max(lagP99, rep.lag("churn", recC))
	churnMetrics(trC, recC, st0, st1, wal0, wal1, elapsed, rep)

	rep.add("loadgen.lag_p99_ms", lagP99, "ms")
	if err := dumpSpans(e, w, all); err != nil {
		rep.note("spans not written: %v", err)
	}
	return rep, nil
}

func workloadByName(name string) workload {
	w, err := findWorkload(name)
	if err != nil {
		panic(err) // the names are constants of this file's callers
	}
	return w
}

// coreArm times the core layer on its own: one cover fill per mix key, and
// the greedy over every mix query on a filled cover.
func coreArm(ctx context.Context, idx *core.Index, rep *report) error {
	// A cover-cache key is a ladder instance and a preference (ψ and τ):
	// the mix has 8, one per (τ, ψ).
	type key struct {
		tau  float64
		pref string
	}
	type cover struct {
		cs   *tops.CoverSets
		reps []core.ClusterID
	}
	covers := map[key]cover{}
	var keys []key
	for _, q := range queryMix() {
		k := key{q.Tau, q.Pref}
		if _, ok := covers[k]; !ok {
			covers[k] = cover{}
			keys = append(keys, k)
		}
	}
	var fills, greedy []float64
	for pass := 0; pass < 3; pass++ {
		for _, k := range keys {
			q := mixQuery{Tau: k.tau, Pref: k.pref}
			t0 := time.Now()
			cs, reps, err := idx.RepCoverCtx(ctx, idx.InstanceFor(k.tau), q.options().Pref)
			if err != nil {
				return err
			}
			fills = append(fills, ms(time.Since(t0)))
			covers[k] = cover{cs, reps}
		}
	}
	for pass := 0; pass < 20; pass++ {
		for _, q := range queryMix() {
			c := covers[key{q.Tau, q.Pref}]
			t0 := time.Now()
			res, err := idx.QueryOnCoverPooledCtx(ctx, idx.InstanceFor(q.Tau), c.cs, c.reps, q.options())
			if err != nil {
				return err
			}
			greedy = append(greedy, ms(time.Since(t0)))
			res.Release()
		}
	}
	rep.add("core.cover_fill_ms_p50", quantile(fills, 0.5), "ms")
	rep.add("core.greedy_ms_p50", quantile(greedy, 0.5), "ms")
	return nil
}

// shardedArm times in-process Sharded.Query with 2 shards over the mix:
// the floor the router is compared against.
func shardedArm(ctx context.Context, sh *shard.Sharded, rep *report) error {
	var lat []float64
	for pass := 0; pass < 11; pass++ {
		for _, q := range queryMix() {
			t0 := time.Now()
			res, err := sh.Query(ctx, q.options())
			if err != nil {
				return fmt.Errorf("sharded query: %w", err)
			}
			if pass > 0 { // the first pass fills the covers
				lat = append(lat, ms(time.Since(t0)))
			}
			res.Release()
		}
	}
	rep.add("shard.sharded_query_ms_p50", quantile(lat, 0.5), "ms")
	return nil
}

// mapmatchArm times Matcher.MatchCtx on the ingest feed.
func mapmatchArm(ctx context.Context, inst *tops.Instance, feed []feedTrace, rep *report) {
	m := mapmatch.NewMatcher(inst.G, mapmatch.Config{})
	var lat []float64
	for _, f := range feed {
		t0 := time.Now()
		if _, err := m.MatchCtx(ctx, f.gps); err == nil {
			lat = append(lat, ms(time.Since(t0)))
		}
	}
	rep.add("mapmatch.trace_ms_p50", quantile(lat, 0.5), "ms")
}

// serverMetrics splits each /v1/query handler span around the engine call
// that answered it. Batches run on the batcher's goroutine without the
// request's trace id, so a request is joined to the first engine call that
// starts after its handler entered and ends before it returned.
func serverMetrics(t *tracer, rep *report) {
	calls := append(t.byName("engine.batch"), t.byName("engine.query")...)
	sort.Slice(calls, func(i, j int) bool { return calls[i].Start.Before(calls[j].Start) })
	var pre, post, sizes []float64
	for _, h := range t.byName("server.http") {
		i := sort.Search(len(calls), func(i int) bool { return !calls[i].Start.Before(h.Start) })
		for ; i < len(calls) && !calls[i].Start.After(h.End); i++ {
			if h.contains(calls[i]) {
				pre = append(pre, ms(calls[i].Start.Sub(h.Start)))
				post = append(post, ms(h.End.Sub(calls[i].End)))
				break
			}
		}
	}
	for _, c := range calls {
		sizes = append(sizes, float64(c.N))
	}
	rep.add("server.pre_engine_ms_p50", quantile(pre, 0.5), "ms")
	rep.add("server.post_engine_ms_p50", quantile(post, 0.5), "ms")
	rep.add("server.batch_size_mean", mean(sizes), "count")
}

// engineQueryMetrics reports engine call latency from spans and the cover
// and greedy split from Engine.Stats deltas.
func engineQueryMetrics(t *tracer, st0, st1 engine.Stats, rep *report) {
	var lat []float64
	for _, name := range []string{"engine.batch", "engine.query"} {
		for _, s := range t.byName(name) {
			lat = append(lat, ms(s.dur()))
		}
	}
	rep.add("engine.query_ms_p50", quantile(lat, 0.5), "ms")
	rep.add("engine.query_ms_p99", quantile(lat, 0.99), "ms")
	q := float64(st1.Queries + st1.BatchQueries - st0.Queries - st0.BatchQueries)
	rep.add("engine.greedy_ms_per_query", ms(st1.GreedyTime-st0.GreedyTime)/q, "ms")
}

// routerMetrics splits routed queries into router self time, wire time and
// member time, joining router, round-trip and member spans by trace id.
func routerMetrics(t *tracer, rep *report) {
	group := func(name string) map[string][]span {
		out := map[string][]span{}
		for _, s := range t.byName(name) {
			if s.Trace != "" {
				out[s.Trace] = append(out[s.Trace], s)
			}
		}
		return out
	}
	rts, handlers := group("router.rt"), group("member.http")
	engines := group("member.start")
	for tr, ss := range group("member.step") {
		engines[tr] = append(engines[tr], ss...)
	}
	var self, wire, memberSelf []float64
	var queries, calls, bytes int64
	for _, h := range t.byName("router.http") {
		if h.Trace == "" {
			continue
		}
		queries++
		var kids []interval
		for _, r := range rts[h.Trace] {
			kids = append(kids, r.iv())
			calls++
			bytes += r.N
			for _, m := range handlers[h.Trace] {
				if m.Where == r.Where && r.contains(m) {
					wire = append(wire, ms(r.dur()-m.dur()))
					break
				}
			}
		}
		self = append(self, ms(selfTime(h.iv(), kids)))
	}
	for tr, hs := range handlers {
		for _, m := range hs {
			for _, en := range engines[tr] {
				if strings.HasPrefix(m.Where, en.Where+"/") && m.contains(en) {
					memberSelf = append(memberSelf, ms(m.dur()-en.dur()))
					break
				}
			}
		}
	}
	durs := func(name string) []float64 {
		var out []float64
		for _, s := range t.byName(name) {
			out = append(out, ms(s.dur()))
		}
		return out
	}
	steps := float64(len(t.byName("member.step")))
	rep.add("router.self_ms_p50", quantile(self, 0.5), "ms")
	rep.add("router.wire_ms_p50", quantile(wire, 0.5), "ms")
	rep.add("router.calls_per_query_mean", float64(calls)/float64(queries), "count")
	rep.add("router.bytes_per_query", float64(bytes)/float64(queries), "B")
	rep.add("shard.start_ms_p50", quantile(durs("member.start"), 0.5), "ms")
	rep.add("shard.step_ms_p50", quantile(durs("member.step"), 0.5), "ms")
	rep.add("shard.steps_per_query_mean", steps/float64(queries), "count")
	rep.add("shard.member_http_self_ms_p50", quantile(memberSelf, 0.5), "ms")
}

// churnMetrics reports the write path and the cover cache under churn.
func churnMetrics(t *tracer, rec *recorder, st0, st1 engine.Stats, w0, w1 wal.Stats, elapsed time.Duration, rep *report) {
	var upd, apply []float64
	for _, s := range t.byName("engine.update") {
		upd = append(upd, ms(s.dur()))
	}
	for _, s := range t.byName("engine.apply") {
		apply = append(apply, ms(s.dur()))
	}
	rep.add("engine.update_ms_p50", quantile(upd, 0.5), "ms")
	rep.add("engine.update_ms_p99", quantile(upd, 0.99), "ms")
	hits, misses := float64(st1.CoverHits-st0.CoverHits), float64(st1.CoverMisses-st0.CoverMisses)
	q := float64(st1.Queries + st1.BatchQueries - st0.Queries - st0.BatchQueries)
	rep.add("engine.cover_hit_ratio", hits/(hits+misses), "ratio")
	rep.add("engine.cover_ms_per_query", ms(st1.CoverTime-st0.CoverTime)/q, "ms")
	rep.add("wal.bytes_per_update", float64(w1.AppendedBytes-w0.AppendedBytes)/float64(w1.Appends-w0.Appends), "B")
	rep.add("wal.syncs_per_s", float64(w1.Syncs-w0.Syncs)/elapsed.Seconds(), "1/s")
	rep.add("ingest.apply_ms_p50", quantile(apply, 0.5), "ms")
	rep.add("ingest.matched_frac", float64(rec.counts["ingest_applied"])/float64(rec.counts["ingest_lines"]), "ratio")
}

// dumpSpans writes every span of the run as JSON lines, one file per
// workload, replacing the previous run's.
func dumpSpans(e *env, w workload, ts []*tracer) error {
	dir := filepath.Join(e.work, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, w.name+".jsonl"))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, t := range ts {
		for _, s := range t.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	return f.Close()
}
