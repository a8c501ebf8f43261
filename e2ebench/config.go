package main

import (
	"fmt"
	"time"
)

// Dataset: the same for every workload and every run. Boot is cold (no
// -cache, no -load) and every flag a workload does not name keeps its
// shipped default, including -batch-window 2ms and -fsync interval
// (100ms).
//
// The dataset seed is fixed; --seed drives everything the generator sends
// (query order, flipped sites, ingested traces and their GPS noise). A
// dataset that followed --seed made the seed-to-seed spread measure the
// dataset instead of the code: cold build 8–14 s, peak RSS 48–61 MB and
// the slowest query of the mix all moved with it.
const (
	preset      = "beijing"
	scale       = 0.01
	datasetSeed = 42 // topsserve's default -seed
)

// The query mix: every combination of k, τ (km) and ψ. That is 32 queries
// over 8 cover-cache keys (4 ladder instances × 2 preferences), so after
// warm-up the mix fits the cover cache.
var (
	mixK    = []int{1, 5, 10, 20}
	mixTau  = []float64{0.4, 0.8, 1.6, 2.4}
	mixPref = []string{"binary", "linear"}
)

type mixQuery struct {
	K    int
	Tau  float64
	Pref string
}

func (q mixQuery) body() []byte {
	return []byte(fmt.Sprintf(`{"k":%d,"tau":%g,"pref":%q}`, q.K, q.Tau, q.Pref))
}

func queryMix() []mixQuery {
	var out []mixQuery
	for _, k := range mixK {
		for _, t := range mixTau {
			for _, p := range mixPref {
				out = append(out, mixQuery{K: k, Tau: t, Pref: p})
			}
		}
	}
	return out
}

// rates are fixed-rate open-loop streams, in operations per second. A flip
// is one /v1/update delete_site followed by add_site of the same node (one
// update sample); an ingest is one POST of ingestBatch GPS traces; a
// delete removes one earlier ingested trajectory (one update sample).
type rates struct {
	query, flip, ingest, delete float64
}

// A run is rounds rounds, each an open-loop phase of openShare of the
// round followed by a closed-loop phase, in which nproc clients send the
// open loop's mix back to back. Spreading both phases over the whole run
// keeps a burst of host interference from landing on one of them only.
const (
	rounds    = 4
	openShare = 0.75
)

// workload fixes one traffic shape. The rates are fixed here once and
// never derived per run. The open phase gives the query latencies (and,
// on churn, the update and ingest latencies); the closed phase gives
// query_qps.
//
// The read-only rates sit at roughly half of the seed commit's closed-loop
// capacity on a 2-core host with 2 clients: interactive about 500–640
// qps, routed about 117–167 qps. Routed sits at the low end, because its
// p50 moves with the host's speed and a lower load queues less.
//
// Churn's write rates are the smallest that give each named write
// percentile 10 samples beyond it in the 18 s of open loop of a 24 s run:
//   - ingest: 6 POSTs/s, 108 samples for p90;
//   - delete: ingestBatch × 6 = 12/s, so the store stays the same size;
//   - flip: 45/s, so flips and deletes give 57 × 18 = 1026 update
//     samples for p99.
//
// The query rate then brings the open loop to half the closed-loop rate
// of the same mix: 148 ops/s against 300–340 measured. The write share
// that follows, a write for about every query, is an assumption of this
// benchmark rather than a traffic model; it makes the reads fill-heavy
// (a cover hit ratio of 0.02–0.06).
type workload struct {
	name   string
	routed bool  // topsrouter in front of 2 -shard-index members
	wal    bool  // -wal-dir at the shipped -fsync interval
	rates  rates // of the open loop; the closed loop sends the same mix
}

const (
	ingestBatch = 2  // GPS traces per /v1/ingest POST
	idPool      = 64 // ingested trajectories kept ready, so deletes never wait
)

var workloads = []workload{
	{name: "interactive", rates: rates{query: 250}},
	{name: "routed", routed: true, rates: rates{query: 60}},
	{name: "churn", wal: true, rates: rates{query: 85, flip: 45, ingest: 6, delete: 12}},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want interactive, routed or churn)", name)
}

// Validity limits.
const (
	// maxLagP99 marks a run invalid when the generator itself sent late.
	maxLagP99 = 50 * time.Millisecond
	// minBeyond is how many samples a reported percentile needs beyond it.
	minBeyond = 10
	// runBudget bounds one whole run, builds excluded.
	runBudget = 170 * time.Second
)
