package main

import (
	"context"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"netclus/internal/core"
	"netclus/internal/engine"
	"netclus/internal/obs"
	"netclus/internal/roadnet"
	"netclus/internal/server"
	"netclus/internal/shard"
	"netclus/internal/trajectory"
)

// span is one timed call at a layer boundary. Spans of one request share
// the X-Netclus-Trace-Id the generator sent; parent names the layer that
// made the call.
type span struct {
	Name   string    `json:"name"`
	Trace  string    `json:"trace,omitempty"`
	Parent string    `json:"parent,omitempty"`
	Where  string    `json:"where,omitempty"` // host:port and path, when known
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	N      int64     `json:"n,omitempty"` // batch size, or bytes on the wire
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }
func (s span) iv() interval       { return interval{s.Start, s.End} }

// contains reports whether o lies within s.
func (s span) contains(o span) bool { return !o.Start.Before(s.Start) && !o.End.After(s.End) }

// tracer keeps spans in memory while on; they are written out at the end.
type tracer struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func (t *tracer) record(s span) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) byName(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// shardStatser mirrors the optional interface internal/server asserts to
// render per-shard counters.
type shardStatser interface {
	ShardStats() []shard.Stat
}

// tracedEngine decorates a server.Engine with spans around every call.
type tracedEngine struct {
	inner server.Engine
	t     *tracer
	where string
}

// wrapEngine decorates eng so that the server sees exactly the optional
// interfaces eng has: Epoch always (the server falls back to 0, as the
// decorator does), ShardStats only when eng serves shards.
func wrapEngine(eng server.Engine, t *tracer, where string) server.Engine {
	te := &tracedEngine{inner: eng, t: t, where: where}
	if _, ok := eng.(shardStatser); ok {
		return &tracedShardedEngine{te}
	}
	return te
}

type tracedShardedEngine struct{ *tracedEngine }

func (e *tracedShardedEngine) ShardStats() []shard.Stat {
	return e.inner.(shardStatser).ShardStats()
}

func (e *tracedEngine) span(name, trace string, start time.Time, n int) {
	e.t.record(span{Name: name, Trace: trace, Parent: "server.http", Where: e.where, Start: start, End: time.Now(), N: int64(n)})
}

func (e *tracedEngine) Query(ctx context.Context, opts core.QueryOptions) (*core.QueryResult, error) {
	t0 := time.Now()
	defer e.span("engine.query", obs.TraceID(ctx), t0, 1)
	return e.inner.Query(ctx, opts)
}

// QueryBatch runs under the batcher's background context, so its spans
// carry no trace id; the analysis joins them to requests by time.
func (e *tracedEngine) QueryBatch(ctx context.Context, qs []core.QueryOptions) []engine.BatchItem {
	t0 := time.Now()
	defer e.span("engine.batch", obs.TraceID(ctx), t0, len(qs))
	return e.inner.QueryBatch(ctx, qs)
}

func (e *tracedEngine) Stats() engine.Stats                   { return e.inner.Stats() }
func (e *tracedEngine) Snapshot(w io.Writer) (int64, error)   { return e.inner.Snapshot(w) }
func (e *tracedEngine) Checkpoint(w io.Writer) (int64, error) { return e.inner.Checkpoint(w) }
func (e *tracedEngine) Graph() *roadnet.Graph                 { return e.inner.Graph() }

func (e *tracedEngine) Epoch() uint64 {
	if ep, ok := e.inner.(interface{ Epoch() uint64 }); ok {
		return ep.Epoch()
	}
	return 0
}

func (e *tracedEngine) AddSite(v roadnet.NodeID) error {
	defer e.span("engine.update", "", time.Now(), 1)
	return e.inner.AddSite(v)
}

func (e *tracedEngine) DeleteSite(v roadnet.NodeID) error {
	defer e.span("engine.update", "", time.Now(), 1)
	return e.inner.DeleteSite(v)
}

func (e *tracedEngine) AddTrajectory(tr *trajectory.Trajectory) (trajectory.ID, error) {
	defer e.span("engine.update", "", time.Now(), 1)
	return e.inner.AddTrajectory(tr)
}

func (e *tracedEngine) DeleteTrajectory(tid trajectory.ID) error {
	defer e.span("engine.update", "", time.Now(), 1)
	return e.inner.DeleteTrajectory(tid)
}

func (e *tracedEngine) AddTrajectories(trs []*trajectory.Trajectory) ([]trajectory.ID, error) {
	defer e.span("engine.apply", "", time.Now(), len(trs))
	return e.inner.AddTrajectories(trs)
}

// tracedMember decorates a shard member's round protocol. Step carries no
// context, so its trace id is the one its session's Start arrived with.
type tracedMember struct {
	inner server.MemberEngine
	t     *tracer
	where string
	mu    sync.Mutex
	trace map[string]string // qid -> trace id
}

func wrapMember(m server.MemberEngine, t *tracer, where string) *tracedMember {
	return &tracedMember{inner: m, t: t, where: where, trace: map[string]string{}}
}

func (m *tracedMember) Meta() shard.MemberMeta              { return m.inner.Meta() }
func (m *tracedMember) Reps(p int) ([]shard.WireRep, error) { return m.inner.Reps(p) }
func (m *tracedMember) Owner(v int64) int                   { return m.inner.Owner(v) }
func (m *tracedMember) Sessions() int                       { return m.inner.Sessions() }
func (m *tracedMember) spanOf(name, tr string, start time.Time) {
	m.t.record(span{Name: name, Trace: tr, Parent: "member.http", Where: m.where, Start: start, End: time.Now()})
}

func (m *tracedMember) Start(ctx context.Context, req *shard.StartRequest) (*shard.RoundReply, error) {
	tr := obs.TraceID(ctx)
	m.mu.Lock()
	m.trace[req.QID] = tr
	m.mu.Unlock()
	defer m.spanOf("member.start", tr, time.Now())
	return m.inner.Start(ctx, req)
}

func (m *tracedMember) Step(req *shard.StepRequest) (*shard.RoundReply, error) {
	m.mu.Lock()
	tr := m.trace[req.QID]
	m.mu.Unlock()
	defer m.spanOf("member.step", tr, time.Now())
	return m.inner.Step(req)
}

func (m *tracedMember) End(qid string) {
	m.mu.Lock()
	delete(m.trace, qid)
	m.mu.Unlock()
	m.inner.End(qid)
}

// tracedTransport times each router-to-member round trip until the router
// has read and closed the response body, and counts the bytes both ways.
type tracedTransport struct {
	inner http.RoundTripper
	t     *tracer
}

func (rt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	sp := span{Name: "router.rt", Trace: req.Header.Get(obs.TraceHeader), Parent: "router.http",
		Where: req.URL.Host + req.URL.Path, Start: time.Now(), N: max(req.ContentLength, 0)}
	resp, err := rt.inner.RoundTrip(req)
	if err != nil {
		sp.End = time.Now()
		rt.t.record(sp)
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, done: func(n int64) {
		sp.End, sp.N = time.Now(), sp.N+n
		rt.t.record(sp)
	}}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64)
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countingBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

// tracedHandler times a whole HTTP tier, from handler entry to return.
type tracedHandler struct {
	inner        http.Handler
	t            *tracer
	name, parent string
	where        string // the tier's host:port
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	h.inner.ServeHTTP(w, r)
	h.t.record(span{Name: h.name, Trace: r.Header.Get(obs.TraceHeader), Parent: h.parent,
		Where: h.where + r.URL.Path, Start: t0, End: time.Now()})
}
