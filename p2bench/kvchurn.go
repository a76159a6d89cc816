package main

// kv-churn: a simulated Chord+KV ring on the transit-stub WAN at two
// shards, under Bamboo churn, serving an open-loop PUT/GET mix. It puts
// writes beside reads under churn: table inserts, deletes and lease
// expiries, KV replication and repair, transport retries and dead-peer
// drops, spawn/kill and the two-shard barrier merge all do real work.
// A change that speeds lookups but costs writes or churn handling shows
// up here.

import (
	"fmt"
	"runtime"

	"p2"
	"p2/internal/harness"
	"p2/internal/simnet"
)

type kvChurnCfg struct {
	Ring      ringSpec
	Session   float64 // mean node session, virtual seconds
	Rate      float64 // ops per virtual second
	VSPerSec  float64 // virtual seconds of arrivals per --seconds
	Drain     float64 // virtual seconds after the last arrival
	Keys      int
	PutFrac   float64
	SetupReps int
}

func kvChurnConfig() kvChurnCfg {
	return kvChurnCfg{
		Ring: ringSpec{N: 256, Net: simnet.TransitStubWAN(4, 4, 17), Spacing: 0.05, Ramp: true,
			Settle: 20, KV: true, Shards: 2},
		Session:   8 * 60,
		Rate:      50,
		VSPerSec:  6,
		Drain:     20,
		Keys:      64,
		PutFrac:   0.5,
		SetupReps: 3,
	}
}

// kvIssued is one KV operation the benchmark issued (op is nil when
// the requester could not take it).
type kvIssued struct {
	op    *p2.KVOp
	put   bool
	value string
}

// kvWrite is what a PUT wrote; writes maps each version the client
// assigned to it, so a GET's (value, version) answer can be checked.
type kvWrite struct{ key, value string }

type kvWindow struct {
	sched     []arrival
	ops       []kvIssued
	base      float64 // virtual time the schedule's offsets count from
	vs        float64
	wall, cpu float64
	events    int64
}

// runKVChurn issues sched against h under churn through the
// deployment's barrier lane: the requester is drawn from the nodes live
// at issue time, so the run is the same at any shard count.
func runKVChurn(h *harness.Chord, c kvChurnCfg, sched []arrival, vs float64, writes map[int64]kvWrite,
	spans *spanLog, tr *layerTracker) *kvWindow {
	kv := h.D.KV()
	w := &kvWindow{sched: sched, ops: make([]kvIssued, len(sched)), base: h.Now(), vs: vs}
	for i, a := range sched {
		h.D.At(w.base+a.at, func() {
			n := h.Node(a.pick(h.LiveAddrs()))
			key := kvKey(a.kv)
			if a.put {
				v := fmt.Sprintf("v%d", i)
				if op, err := kv.Put(n, key, v); err == nil {
					w.ops[i] = kvIssued{op: op, put: true, value: v}
					writes[op.Ver] = kvWrite{key, v}
				}
				return
			}
			if op, err := kv.Get(n, key); err == nil {
				w.ops[i] = kvIssued{op: op}
			}
		})
	}
	h.StartChurn(c.Session)
	runtime.GC() // start every window at the same point of the GC cycle
	sw := startWatch()
	w.events = runSliced(h.D, vs, spans, tr)
	w.wall, w.cpu = sw.stop()
	if tr != nil {
		tr.finish()
	}
	h.StopChurn()
	return w
}

// kvTally is the outcome of a window's operations.
type kvTally struct {
	failed, wrong    int
	putLats, getLats []float64
	gets, stale      int
	firstWrong       string
}

// checkGet reports whether a completed GET answered with a value that
// some PUT wrote to that key at the version it reports (or a clean
// miss), and why not.
func checkGet(op *p2.KVOp, writes map[int64]kvWrite) (bool, string) {
	if op.Ver == 0 {
		return op.Value == "-", fmt.Sprintf("GET %s missed but returned %q", op.Key, op.Value)
	}
	w, ok := writes[op.Ver]
	if !ok || w.key != op.Key || w.value != op.Value {
		return false, fmt.Sprintf("GET %s returned %q at version %d; that version wrote %q to %q",
			op.Key, op.Value, op.Ver, w.value, w.key)
	}
	return true, ""
}

func tallyKV(ops []kvIssued, done func(i int) bool, latency func(i int) float64, writes map[int64]kvWrite) kvTally {
	var t kvTally
	for i, o := range ops {
		if o.op == nil || !done(i) {
			t.failed++
			continue
		}
		if o.put {
			t.putLats = append(t.putLats, latency(i))
			continue
		}
		if ok, why := checkGet(o.op, writes); !ok {
			t.failed++
			t.wrong++
			if t.firstWrong == "" {
				t.firstWrong = why
			}
			continue
		}
		t.gets++
		t.getLats = append(t.getLats, latency(i))
		if o.op.Stale {
			t.stale++
		}
	}
	return t
}

// merge adds another window's outcome to t.
func (t *kvTally) merge(o kvTally) {
	t.failed += o.failed
	t.wrong += o.wrong
	t.putLats = append(t.putLats, o.putLats...)
	t.getLats = append(t.getLats, o.getLats...)
	t.gets += o.gets
	t.stale += o.stale
	if t.firstWrong == "" {
		t.firstWrong = o.firstWrong
	}
}

// report adds the KV end-to-end metrics shared by kv-churn and kv-udp.
func (t kvTally) report(r *result, attempted int, cpu float64) {
	r.Attempted, r.Failed = attempted, t.failed
	r.check(t.wrong == 0, "%d GETs returned a value not written at their version; first: %s", t.wrong, t.firstWrong)
	addLatency(r, "put", t.putLats)
	addLatency(r, "get", t.getLats)
	r.add("fail_frac", ratio(float64(t.failed), float64(attempted)), "frac", attempted)
	r.add("stale_frac", ratio(float64(t.stale), float64(t.gets)), "frac", t.gets)
	addCommon(r, attempted, t.failed, cpu)
}

// tally counts each op's latency from its scheduled time, as for
// lookups: the wait for the shard barrier that injects it is included.
func (w *kvWindow) tally(writes map[int64]kvWrite) kvTally {
	return tallyKV(w.ops,
		func(i int) bool { return w.ops[i].op.Done },
		func(i int) float64 { return w.ops[i].op.Completed - (w.base + w.sched[i].at) },
		writes)
}

func buildKVChurn(c kvChurnCfg, spans *spanLog, r *result) *harness.Chord {
	h, rc := buildRing(c.Ring, spans)
	r.check(rc >= minRing, "ring correctness %.4f below %.2f before the window (shards=%d)", rc, minRing, c.Ring.Shards)
	return h
}

func runKVChurnWorkload(c kvChurnCfg, o runOpts) (*result, error) {
	if o.trace {
		return traceKVChurn(c, o)
	}
	r := &result{}
	h, setupS, heap0 := setupReps(c.SetupReps, func() *harness.Chord {
		return buildKVChurn(c, nil, r)
	}, (*harness.Chord).Close)
	defer h.Close()
	heapKB := (liveHeap() - heap0) / float64(c.Ring.N) / 1024

	dur := c.VSPerSec * o.seconds
	sched := drawArrivals(scheduleSeed(o.seed, 0), c.Rate, dur, c.Keys, c.PutFrac)
	writes := make(map[int64]kvWrite)
	w := runKVChurn(h, c, sched, dur+c.Drain, writes, nil, nil)

	r.add("setup_s", setupS, "s", c.SetupReps)
	r.add("sim_speed", w.vs/w.wall, "vs/s", 0)
	r.add("heap_kb_per_node", heapKB, "kB", 0)
	w.tally(writes).report(r, len(sched), w.cpu)
	return r, nil
}

// traceKVChurn is the traced run: compile and spawn spans, an untraced
// window, a traced window, and the same untraced window again on a
// one-shard build of the ring for eventloop.shard_speedup.
func traceKVChurn(c kvChurnCfg, o runOpts) (*result, error) {
	r := &result{}
	spans := newSpanLog()
	plan, err := compileMS(r, spans, nil, p2.ChordSource, p2.KVSource)
	if err != nil {
		return nil, err
	}
	if err := simSpawnMS(r, spans, c.Ring, plan); err != nil {
		return nil, err
	}
	dur := c.VSPerSec * o.seconds
	schedA := drawArrivals(scheduleSeed(o.seed, 0), c.Rate, dur, c.Keys, c.PutFrac)
	schedB := drawArrivals(scheduleSeed(o.seed, 1), c.Rate, dur, c.Keys, c.PutFrac)

	h := buildKVChurn(c, spans, r)
	writes := make(map[int64]kvWrite)
	a := runKVChurn(h, c, schedA, dur+c.Drain, writes, nil, nil)

	tr := newLayerTracker(h.D)
	prof, err := startProfile()
	if err != nil {
		h.Close()
		return nil, err
	}
	b := runKVChurn(h, c, schedB, dur+c.Drain, writes, spans, tr)
	shares, err := prof.stop()
	h.Close()
	if err != nil {
		return nil, err
	}
	t := b.tally(writes)
	r.Attempted, r.Failed = len(schedB), t.failed
	r.check(t.wrong == 0, "%d GETs returned a value not written at their version; first: %s", t.wrong, t.firstWrong)
	tr.report(r, window{vs: b.vs, wall: b.wall, events: b.events, ops: len(schedB), profile: shares})
	r.add("trace.overhead_frac", 1-(b.vs/b.wall)/(a.vs/a.wall), "frac", 0)
	for i, k := range b.ops {
		if k.op != nil {
			end := k.op.Completed
			if !k.op.Done {
				end = b.base + b.vs
			}
			spans.add("kv."+k.op.Kind, "virtual", 0, 0, b.base+schedB[i].at, end)
		}
	}

	one := c
	one.Ring.Shards = 1
	h1 := buildKVChurn(one, nil, r)
	a1 := runKVChurn(h1, one, schedA, dur+c.Drain, make(map[int64]kvWrite), nil, nil)
	h1.Close()
	r.add("eventloop.shard_speedup", (a.vs/a.wall)/(a1.vs/a1.wall), "ratio", 0)
	return r, spans.write(o.spansPath)
}
