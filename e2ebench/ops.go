package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"netclus/internal/gen"
	"netclus/internal/obs"
	"netclus/internal/tops"
	"netclus/internal/trajectory"
)

// client talks to one serving tier. When trace is non-nil every request
// carries a fresh X-Netclus-Trace-Id, so the traced run can join spans.
type client struct {
	base  string
	hc    *http.Client
	trace *atomic.Int64
}

func newHTTPClient(conns int, rt http.RoundTripper) *http.Client {
	if rt == nil {
		rt = &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	}
	return &http.Client{Transport: rt, Timeout: 30 * time.Second}
}

func (c *client) post(ctx context.Context, path, ctype string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", ctype)
	if c.trace != nil {
		req.Header.Set(obs.TraceHeader, fmt.Sprintf("b%d", c.trace.Add(1)))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// answer is the part of a /v1/query response that must be reproducible.
type answer struct {
	Sites              []int64 `json:"sites"`
	SiteIDs            []int32 `json:"site_ids"`
	EstimatedUtility   float64 `json:"estimated_utility"`
	EstimatedCovered   int     `json:"estimated_covered"`
	InstanceUsed       int     `json:"instance_used"`
	NumRepresentatives int     `json:"num_representatives"`
}

// canonical renders every reproducible field, the utility by its bits.
func (a *answer) canonical() string {
	return fmt.Sprintf("%v|%v|%x|%d|%d|%d", a.Sites, a.SiteIDs, math.Float64bits(a.EstimatedUtility),
		a.EstimatedCovered, a.InstanceUsed, a.NumRepresentatives)
}

// digest identifies an answer across topologies: the selected sites and
// the utility bits. Dense site ids may legitimately differ behind a router.
func digest(sites []int64, utility float64) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("%v|%x", sites, math.Float64bits(utility))))
	return hex.EncodeToString(h[:8])
}

func (a *answer) wellFormed(k int) error {
	if len(a.Sites) != len(a.SiteIDs) || len(a.Sites) > k || a.EstimatedUtility < 0 ||
		math.IsNaN(a.EstimatedUtility) || math.IsInf(a.EstimatedUtility, 0) {
		return fmt.Errorf("malformed answer %s for k=%d", a.canonical(), k)
	}
	return nil
}

// feedTrace is one generated GPS trace, as its /v1/ingest NDJSON line and
// as the trace itself for the traced run's matcher arm.
type feedTrace struct {
	line []byte
	gps  trajectory.GPSTrace
}

// makeFeed emits n noisy GPS traces from the dataset's trajectories, the
// way topsgen -ndjson does, with noise seed seed+i for trace i. The seed
// also picks where in the trajectory store the feed starts.
func makeFeed(inst *tops.Instance, seed int64, n int) []feedTrace {
	out := make([]feedTrace, n)
	m := inst.Trajs.Len()
	first := int(uint64(seed) % uint64(m))
	for i := range out {
		orig := inst.Trajs.Get(trajectory.ID((first + i) % m))
		tr := gen.EmitGPS(inst.G, orig, gen.GPSConfig{Seed: seed + int64(i)})
		var b strings.Builder
		fmt.Fprintf(&b, `{"id":"t%d","points":[`, i)
		for j, p := range tr.Points {
			if j > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `{"x":%g,"y":%g,"t":%g}`, p.Pos.X, p.Pos.Y, p.Time)
		}
		b.WriteString("]}\n")
		out[i] = feedTrace{line: []byte(b.String()), gps: tr}
	}
	return out
}

// workloadRun executes the workload's operations against one tier and checks
// every output.
type workloadRun struct {
	c        client
	mix      []mixQuery
	readOnly bool // answers must repeat bit-identically per query

	mu    sync.Mutex
	first map[int]seen      // first answer per mix position
	ref   map[string]string // query body -> expected digest; nil skips
	ids   []int32           // acknowledged ingested trajectory ids, oldest first

	querySeq atomic.Int64
	sites    []int64 // flip order
	flipSeq  atomic.Int64
	feed     []feedTrace
	feedSeq  atomic.Int64
	rec      *recorder
}

func newWorkloadRun(c client, inst *tops.Instance, seed int64) *workloadRun {
	rng := rand.New(rand.NewSource(seed))
	mix := queryMix()
	rng.Shuffle(len(mix), func(i, j int) { mix[i], mix[j] = mix[j], mix[i] })
	sites := make([]int64, len(inst.Sites))
	for i, v := range inst.Sites {
		sites[i] = int64(v)
	}
	rng.Shuffle(len(sites), func(i, j int) { sites[i], sites[j] = sites[j], sites[i] })
	return &workloadRun{c: c, mix: mix, first: map[int]seen{}, sites: sites,
		feed: makeFeed(inst, seed, 3000), rec: newRecorder()}
}

// execFn adapts exec to the load loops.
func (d *workloadRun) execFn(ctx context.Context) func(o op, start time.Time) {
	return func(o op, start time.Time) { d.exec(ctx, o, start) }
}

// exec runs one scheduled op, timing it from start.
func (d *workloadRun) exec(ctx context.Context, o op, start time.Time) {
	switch o.kind {
	case opQuery:
		i := int(d.querySeq.Add(1)-1) % len(d.mix)
		err := d.query(ctx, i)
		d.rec.done("query", time.Since(start), err)
	case opFlip:
		d.flip(ctx, start)
	case opIngest:
		d.ingest(ctx, start)
	case opDelete:
		d.deleteTrajectory(ctx, start)
	}
}

func (d *workloadRun) query(ctx context.Context, i int) error {
	q := d.mix[i]
	status, raw, err := d.c.post(ctx, "/v1/query", "application/json", q.body())
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, bytes.TrimSpace(raw))
	}
	var a answer
	if err := json.Unmarshal(raw, &a); err != nil {
		return err
	}
	if err := a.wellFormed(q.K); err != nil {
		return err
	}
	if !d.readOnly {
		return nil
	}
	now := seen{canon: a.canonical(), digest: digest(a.Sites, a.EstimatedUtility)}
	d.mu.Lock()
	defer d.mu.Unlock()
	if prev, ok := d.first[i]; !ok {
		d.first[i] = now
	} else if prev.canon != now.canon {
		return fmt.Errorf("answer to %s changed: %s then %s", q.body(), prev.canon, now.canon)
	}
	if d.ref != nil {
		if want := d.ref[string(q.body())]; want != now.digest {
			return fmt.Errorf("answer to %s differs from the single-process answer", q.body())
		}
	}
	return nil
}

type seen struct{ canon, digest string }

// digests returns the digest of every answer seen so far, by query body.
func (d *workloadRun) digests() map[string]string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := map[string]string{}
	for i, a := range d.first {
		out[string(d.mix[i].body())] = a.digest
	}
	return out
}

type updateAck struct {
	OK           bool   `json:"ok"`
	TrajectoryID *int32 `json:"trajectory_id"`
}

// update posts one /v1/update. Only a 200 with ok:true counts.
func (d *workloadRun) update(ctx context.Context, body string) (*updateAck, error) {
	status, raw, err := d.c.post(ctx, "/v1/update", "application/json", []byte(body))
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("%s: status %d: %s", body, status, bytes.TrimSpace(raw))
	}
	var ack updateAck
	if err == nil {
		if err = json.Unmarshal(raw, &ack); err == nil && !ack.OK {
			err = fmt.Errorf("%s: not acknowledged", body)
		}
	}
	if err != nil {
		return nil, err
	}
	return &ack, nil
}

// flip deletes a site and re-adds the same node, timed from the intended
// send until the re-add is acknowledged. One sample per flip: timed
// apart, the cheap deletes and the dearer re-adds would each be half the
// samples, and the median would sit on the edge between them.
func (d *workloadRun) flip(ctx context.Context, start time.Time) {
	v := d.sites[int(d.flipSeq.Add(1)-1)%len(d.sites)]
	_, err := d.update(ctx, fmt.Sprintf(`{"op":"delete_site","node":%d}`, v))
	if err == nil {
		_, err = d.update(ctx, fmt.Sprintf(`{"op":"add_site","node":%d}`, v))
	}
	d.rec.done("update", time.Since(start), err)
}

func (d *workloadRun) pushIDs(ids []int32) {
	d.mu.Lock()
	d.ids = append(d.ids, ids...)
	d.mu.Unlock()
}

func (d *workloadRun) poolSize() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.ids)
}

// deleteTrajectory removes the oldest acknowledged ingested trajectory,
// keeping the store size bounded.
func (d *workloadRun) deleteTrajectory(ctx context.Context, start time.Time) {
	d.mu.Lock()
	if len(d.ids) == 0 {
		d.mu.Unlock()
		d.rec.skip()
		return
	}
	id := d.ids[0]
	d.ids = d.ids[1:]
	d.mu.Unlock()
	_, err := d.update(ctx, fmt.Sprintf(`{"op":"delete_trajectory","id":%d}`, id))
	d.rec.done("update", time.Since(start), err)
}

// verdict is one line of the /v1/ingest response stream.
type verdict struct {
	Line         *int   `json:"line"`
	TrajectoryID *int32 `json:"trajectory_id"`
	Code         string `json:"code"`
	Error        string `json:"error"`
}

// ingest sends the next ingestBatch traces as one NDJSON POST and times
// it up to its last verdict. A line fails unless it was applied or
// answered no_match.
func (d *workloadRun) ingest(ctx context.Context, start time.Time) {
	first := int(d.feedSeq.Add(ingestBatch) - ingestBatch)
	var body bytes.Buffer
	for j := 0; j < ingestBatch; j++ {
		body.Write(d.feed[(first+j)%len(d.feed)].line)
	}
	ids, err := d.postIngest(ctx, body.Bytes())
	d.rec.done("ingest", time.Since(start), err)
	if err == nil {
		d.rec.count("ingest_lines", ingestBatch)
		d.rec.count("ingest_applied", len(ids))
		d.pushIDs(ids)
	}
}

func (d *workloadRun) postIngest(ctx context.Context, body []byte) ([]int32, error) {
	status, raw, err := d.c.post(ctx, "/v1/ingest", "application/x-ndjson", body)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("ingest status %d: %s", status, bytes.TrimSpace(raw))
	}
	var ids []int32
	lines := 0
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		var v verdict
		if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
			return nil, err
		}
		switch {
		case v.Line == nil:
			return nil, fmt.Errorf("ingest aborted: %s (%s)", v.Error, v.Code)
		case v.TrajectoryID != nil:
			ids = append(ids, *v.TrajectoryID)
		case v.Code != "no_match":
			return nil, fmt.Errorf("ingest line %d: %s (%s)", *v.Line, v.Error, v.Code)
		}
		lines++
	}
	if lines != ingestBatch {
		return nil, fmt.Errorf("ingest answered %d verdicts for %d lines", lines, ingestBatch)
	}
	return ids, nil
}
