package main

import (
	"fmt"
	"math/rand"
	"time"

	"p2"
	"p2/internal/harness"
	"p2/internal/id"
	"p2/internal/simnet"
)

// ringSpec is a simulated Chord (or Chord+KV) ring to build.
type ringSpec struct {
	N       int
	Net     simnet.Config
	Spacing float64 // seconds between joins (the floor when Ramp is set)
	Ramp    bool    // harness.Opts.JoinRamp
	Settle  float64 // virtual seconds after the last join before checking convergence
	KV      bool
	Shards  int
}

// deploymentSeed seeds every deployment the benchmark builds: the
// topology's link draws, each node's random streams and the churn
// process. It is part of a workload's definition, like its size; the
// --seed argument draws the requests, so runs with different seeds
// measure different inputs on the same system.
const deploymentSeed = 1

// minRing is the ring correctness every workload requires before its
// window opens.
const minRing = 0.99

// maxExtraSettle bounds the extra virtual time a slow build gets to
// reach minRing.
const maxExtraSettle = 120

// slice is how much virtual time one Deployment.Run call covers inside
// a measured window; the traced run samples layer counters after each.
const slice = 5.0

// buildRing builds and converges a ring: join everyone, settle, then
// advance in 10-second steps until ring correctness reaches minRing.
// It returns the ring correctness reached.
func buildRing(s ringSpec, spans *spanLog) (*harness.Chord, float64) {
	net := s.Net
	h := harness.NewChord(harness.Opts{N: s.N, Seed: deploymentSeed, JoinSpacing: s.Spacing,
		JoinRamp: s.Ramp, Net: &net, KV: s.KV, Shards: s.Shards})
	runSliced(h.D, h.JoinDeadline()+s.Settle, spans, nil)
	rc := h.RingCorrectness()
	for extra := 0.0; rc < minRing && extra < maxExtraSettle; extra += 10 {
		runSliced(h.D, 10, spans, nil)
		rc = h.RingCorrectness()
	}
	return h, rc
}

// runSliced advances a simulated deployment by total virtual seconds
// in slices, recording a wall span per Deployment.Run call and
// sampling tr (when not nil) after each, and returns the events fired.
func runSliced(d *p2.Deployment, total float64, spans *spanLog, tr *layerTracker) int64 {
	var events int64
	end := d.Now() + total
	for now := d.Now(); end-now > 1e-9; now = d.Now() {
		step := slice
		if end-now < step {
			step = end - now
		}
		spans.wall("deployment.run", func() { events += int64(d.Run(step)) })
		if tr != nil {
			tr.sample()
		}
	}
	return events
}

// setupReps builds a deployment reps times with build, closing all but
// the last, and returns the last one with the median build time. The
// live heap is read just before the last build, so the caller can
// subtract it as the control.
func setupReps[T any](reps int, build func() T, closeFn func(T)) (last T, setupS, heap0 float64) {
	var times []float64
	for i := 0; i < reps; i++ {
		if i == reps-1 {
			heap0 = liveHeap()
		}
		start := time.Now()
		v := build()
		times = append(times, time.Since(start).Seconds())
		if i < reps-1 {
			closeFn(v)
		} else {
			last = v
		}
	}
	return last, median(times), heap0
}

// arrival is one pre-drawn open-loop request: its offset into the
// window, a uniform draw that picks the requester among the nodes live
// at issue time, and its payload draws.
type arrival struct {
	at   float64
	node float64 // in [0,1): index = int(node * live)
	key  id.ID   // lookups
	kv   int     // KV key index
	put  bool
}

// drawArrivals pre-draws a Poisson schedule of rate arrivals per
// second over dur seconds. Every choice an arrival needs is drawn here,
// so the schedule depends on the seed alone, never on how the system
// keeps up.
func drawArrivals(seed int64, rate, dur float64, keys int, putFrac float64) []arrival {
	rng := rand.New(rand.NewSource(seed))
	var out []arrival
	for t := rng.ExpFloat64() / rate; t < dur; t += rng.ExpFloat64() / rate {
		a := arrival{at: t, node: rng.Float64(), key: id.Random(rng)}
		if keys > 0 {
			a.kv = rng.Intn(keys)
			a.put = rng.Float64() < putFrac
		}
		out = append(out, a)
	}
	return out
}

// pick maps an arrival's requester draw onto a live set.
func (a arrival) pick(live []string) string { return live[int(a.node*float64(len(live)))] }

// kvKey names KV key k of a run.
func kvKey(k int) string { return fmt.Sprintf("bk/%d", k) }

// scheduleSeed derives the seed of the i-th schedule a run draws, so
// the deployment (seeded with seed) and each schedule use distinct
// random streams.
func scheduleSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) + 1 }
