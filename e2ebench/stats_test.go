package main

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPercentileRuleNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {10, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {199, 0.9}, {200, 0.95},
		{999, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := highestPercentile(tc.n); got != tc.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	if b := beyond(1000, 0.99); b != 10 {
		t.Errorf("beyond(1000, p99) = %d, want 10", b)
	}
	if b := beyond(999, 0.99); b != 9 {
		t.Errorf("beyond(999, p99) = %d, want 9", b)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	if got := quantile(xs, 0.99); got != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", got)
	}
	if got := quantile(xs, 0.5); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
}

func TestWindowedQuantileIgnoresOneBurst(t *testing.T) {
	// 3000 samples of 1 ms with one window's tail inflated to 100 ms: the
	// plain p99 moves, the median of the three windows' p99s does not.
	xs := make([]float64, 3000)
	for i := range xs {
		xs[i] = 1
	}
	for i := 0; i < 40; i++ {
		xs[i] = 100
	}
	if got := quantile(append([]float64(nil), xs...), 0.99); got != 100 {
		t.Fatalf("plain p99 = %v, want the burst", got)
	}
	if got := windowedQuantile(xs, 0.99); got != 1 {
		t.Errorf("windowed p99 = %v, want 1", got)
	}
	// Too few samples for two windows: the plain quantile.
	if got := windowedQuantile(xs[:1500], 0.99); got != 100 {
		t.Errorf("single-window p99 = %v, want 100", got)
	}
}

func at(base time.Time, fromMs, toMs int) interval {
	return interval{base.Add(time.Duration(fromMs) * time.Millisecond), base.Add(time.Duration(toMs) * time.Millisecond)}
}

func TestSelfTimeCountsParallelChildrenOnce(t *testing.T) {
	b := time.Unix(0, 0)
	parent := at(b, 0, 100)
	for _, tc := range []struct {
		name string
		kids []interval
		want time.Duration
	}{
		{"none", nil, 100 * time.Millisecond},
		{"disjoint", []interval{at(b, 10, 20), at(b, 30, 50)}, 70 * time.Millisecond},
		{"parallel overlap", []interval{at(b, 10, 60), at(b, 20, 70), at(b, 30, 40)}, 40 * time.Millisecond},
		{"touching", []interval{at(b, 10, 20), at(b, 20, 30)}, 80 * time.Millisecond},
		{"clipped to parent", []interval{at(b, -20, 10), at(b, 90, 130)}, 80 * time.Millisecond},
		{"outside", []interval{at(b, 120, 130)}, 100 * time.Millisecond},
	} {
		if got := selfTime(parent, tc.kids); got != tc.want {
			t.Errorf("%s: self = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestScheduleIsFixedRate(t *testing.T) {
	ops := schedule(time.Second, rates{query: 100, flip: 10})
	n := map[opKind]int{}
	for i, o := range ops {
		n[o.kind]++
		if i > 0 && o.at < ops[i-1].at {
			t.Fatalf("op %d at %v before op %d at %v", i, o.at, i-1, ops[i-1].at)
		}
	}
	if n[opQuery] != 100 || n[opFlip] != 10 || len(ops) != 110 {
		t.Errorf("counts %v, want 100 queries and 10 flips", n)
	}
}

// TestOpenLoopTimesFromIntendedSend stalls the first of four ops on one
// executor: the ops queued behind it must carry the stall in their
// latency, while the generator's own lag stays small because it never
// waits for executors.
func TestOpenLoopTimesFromIntendedSend(t *testing.T) {
	ops := []op{{at: 0}, {at: 10 * time.Millisecond}, {at: 20 * time.Millisecond}, {at: 30 * time.Millisecond}}
	rec := newRecorder()
	var mu sync.Mutex
	lat := map[time.Duration]time.Duration{}
	openLoop(context.Background(), ops, 1, rec, func(o op, intended time.Time) {
		if o.at == 0 {
			time.Sleep(60 * time.Millisecond)
		}
		mu.Lock()
		lat[o.at] = time.Since(intended)
		mu.Unlock()
	})
	for _, o := range ops {
		// Every op finishes right after the stall ends at 60 ms.
		want := 60*time.Millisecond - o.at
		if got := lat[o.at]; got < want || got > want+25*time.Millisecond {
			t.Errorf("op at %v: latency %v, want about %v", o.at, got, want)
		}
	}
	if len(rec.lag) != len(ops) {
		t.Fatalf("%d lag samples, want %d", len(rec.lag), len(ops))
	}
	for i, l := range rec.lag {
		if l > 20 {
			t.Errorf("send %d was %.1f ms late; the generator must not wait for executors", i, l)
		}
	}
}

// TestClosedLoopRateCountsStalls stalls a closed loop's only client for
// 1 s halfway through a 1 s phase. The phase must be timed from the first
// send to the last completion, stall included, so the rate over it falls
// to about a third of the unstalled 100/s.
func TestClosedLoopRateCountsStalls(t *testing.T) {
	var n atomic.Int64
	elapsed := closedLoop(context.Background(), []op{{}}, time.Second, 1, func(op, time.Time) {
		if n.Add(1) == 50 {
			time.Sleep(time.Second)
			return
		}
		time.Sleep(10 * time.Millisecond)
	})
	if elapsed < 1400*time.Millisecond {
		t.Fatalf("phase timed %v; the stalled send ends about 1.5 s in", elapsed)
	}
	if rate := float64(n.Load()) / elapsed.Seconds(); rate > 40 {
		t.Errorf("rate %.1f/s over a stalled phase, want about 33", rate)
	}
}
