package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

type opKind int

const (
	opQuery opKind = iota
	opFlip
	opIngest
	opDelete
)

// op is one scheduled operation; at is its intended send time as an
// offset from the start of the phase.
type op struct {
	at   time.Duration
	kind opKind
}

// schedule merges one fixed-rate stream per op kind over d. The streams
// are phase-shifted against each other so kinds do not collide.
func schedule(d time.Duration, r rates) []op {
	var out []op
	for k, rate := range []float64{r.query, r.flip, r.ingest, r.delete} {
		if rate <= 0 {
			continue
		}
		shift := float64(k) / 4
		for i := 0; ; i++ {
			at := time.Duration((float64(i) + shift) / rate * float64(time.Second))
			if at >= d {
				break
			}
			out = append(out, op{at: at, kind: opKind(k)})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].at < out[j].at })
	return out
}

// recorder collects one phase's samples. Latencies are in milliseconds.
type recorder struct {
	mu        sync.Mutex
	lat       map[string][]float64 // in completion order
	lag       []float64
	attempted int
	failed    int
	skipped   int
	counts    map[string]int
	firstErr  string
}

func newRecorder() *recorder {
	return &recorder{lat: map[string][]float64{}, counts: map[string]int{}}
}

// done records one finished operation; latency is kept only for
// successful ones, a failure counts against the run.
func (r *recorder) done(name string, d time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if r.firstErr == "" {
			r.firstErr = fmt.Sprintf("%s: %v", name, err)
		}
		return
	}
	r.lat[name] = append(r.lat[name], ms(d))
}

func (r *recorder) count(name string, n int) {
	r.mu.Lock()
	r.counts[name] += n
	r.mu.Unlock()
}

func (r *recorder) skip() {
	r.mu.Lock()
	r.skipped++
	r.mu.Unlock()
}

// openLoop sends ops at their intended times through at most workers
// concurrent executors. A dispatcher sleeps until each op is due and
// hands it over; its lateness is the generator's lag. Each executor
// times its op from the intended send time, so the wait behind a busy
// executor or a stalled server is part of the latency. It returns when
// every op has finished.
func openLoop(ctx context.Context, ops []op, workers int, rec *recorder, exec func(o op, intended time.Time)) {
	type due struct {
		o        op
		intended time.Time
	}
	// Sized to the number of sends: the dispatcher must never block on
	// busy executors, or its lag would measure the server.
	ch := make(chan due, len(ops))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := range ch {
				if ctx.Err() != nil {
					continue
				}
				exec(d.o, d.intended)
			}
		}()
	}
	start := time.Now()
	lags := make([]float64, 0, len(ops))
	for _, o := range ops {
		intended := start.Add(o.at)
		if wait := time.Until(intended); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
			}
		}
		if ctx.Err() != nil {
			break
		}
		lags = append(lags, ms(time.Since(intended)))
		ch <- due{o, intended}
	}
	close(ch)
	wg.Wait()
	rec.mu.Lock()
	rec.lag = append(rec.lag, lags...)
	rec.mu.Unlock()
}

// closedLoop runs workers clients back to back for d: each takes the next
// op of the mix and sends it as soon as its previous op finished. It
// returns the time from the first send to the last completion, so a stall
// anywhere in the phase lowers the rate computed over it.
func closedLoop(ctx context.Context, mix []op, d time.Duration, workers int, exec func(o op, start time.Time)) time.Duration {
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				i := next.Add(1) - 1
				exec(mix[int(i)%len(mix)], time.Now())
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}
