package main

// chord-lookup: the paper's §5 static-ring experiment. A converged
// Chord ring on a 16-domain two-tier topology serves open-loop Poisson
// lookups, then drains. Nearly all CPU goes to the OverLog hot path
// (pel, id/val/tuple, engine probes, dataflow); with no churn, no KV
// and one shard, table turnover, transport retries, the shard barrier
// and sockets do little. The same schedule replayed on the hand-coded
// chordref ring gives the declarative cost ratio.

import (
	"fmt"
	"runtime"
	"sync"

	"p2"
	"p2/internal/chordref"
	"p2/internal/eventloop"
	"p2/internal/harness"
	"p2/internal/simnet"
)

type chordCfg struct {
	Ring      ringSpec
	Rate      float64 // lookups per virtual second
	VSPerSec  float64 // virtual seconds of arrivals per --seconds
	Drain     float64 // virtual seconds after the last arrival
	SetupReps int
	RefReps   int // chordref replays of the schedule, for a steady CPU figure
}

func chordLookupConfig() chordCfg {
	net := simnet.DefaultConfig()
	net.Domains = 16
	return chordCfg{
		Ring:     ringSpec{N: 128, Net: net, Spacing: 0.1, Ramp: true, Settle: 20, Shards: 1},
		Rate:     50,
		VSPerSec: 10,
		Drain:    30,
		// Three builds for a median set-up time.
		SetupReps: 3,
		RefReps:   5,
	}
}

// lookupWindow is one measured lookup window on the P2 ring.
type lookupWindow struct {
	sched     []arrival
	results   []*harness.LookupResult
	expect    []string // chordref.Owner of each key over the live set
	base      float64  // virtual time the schedule's offsets count from
	vs        float64
	wall, cpu float64
	events    int64
}

// runLookups issues sched on h through the deployment's barrier lane
// and advances virtual time through the window and the drain.
func runLookups(h *harness.Chord, sched []arrival, vs float64, spans *spanLog, tr *layerTracker) *lookupWindow {
	live := h.LiveAddrs()
	w := &lookupWindow{sched: sched, vs: vs,
		results: make([]*harness.LookupResult, len(sched)), expect: make([]string, len(sched))}
	for i, a := range sched {
		w.expect[i] = chordref.Owner(a.key, live)
	}
	w.base = h.Now()
	for i, a := range sched {
		h.D.At(w.base+a.at, func() { w.results[i] = h.Lookup(a.pick(live), a.key) })
	}
	runtime.GC() // start every window at the same point of the GC cycle
	sw := startWatch()
	w.events = runSliced(h.D, vs, spans, tr)
	w.wall, w.cpu = sw.stop()
	if tr != nil {
		tr.finish()
	}
	return w
}

// tally counts lookups that never answered or named the wrong owner,
// and collects latencies and hops of the correct ones. A lookup is
// injected at the first shard barrier after its scheduled time, so its
// latency counts from the scheduled time: the wait for the barrier is
// part of what the client sees.
func (w *lookupWindow) tally() (failed int, lats, hops []float64) {
	for i, lr := range w.results {
		if lr == nil || !lr.Done || lr.Owner != w.expect[i] {
			failed++
			continue
		}
		lats = append(lats, lr.Completed-w.due(i))
		hops = append(hops, float64(lr.Hops))
	}
	return failed, lats, hops
}

// due is the scheduled virtual time of arrival i.
func (w *lookupWindow) due(i int) float64 { return w.base + w.sched[i].at }

func runChordLookup(c chordCfg, o runOpts) (*result, error) {
	if o.trace {
		return traceChordLookup(c, o)
	}
	r := &result{}
	var rc float64
	h, setupS, heap0 := setupReps(c.SetupReps, func() *harness.Chord {
		var h *harness.Chord
		h, rc = buildRing(c.Ring, nil)
		return h
	}, (*harness.Chord).Close)
	r.check(rc >= minRing, "ring correctness %.4f below %.2f before the window", rc, minRing)
	heapKB := (liveHeap() - heap0) / float64(c.Ring.N) / 1024

	dur := c.VSPerSec * o.seconds
	sched := drawArrivals(scheduleSeed(o.seed, 0), c.Rate, dur, 0, 0)
	h.ResetTraffic()
	w := runLookups(h, sched, dur+c.Drain, nil, nil)
	_, maint := h.TrafficBytes()
	live := h.LiveAddrs()
	// Close the P2 ring first: its heap would otherwise be marked by
	// every GC inside the chordref windows.
	h.Close()

	refCPU, err := chordrefCPU(c, live, sched, w.vs)
	if err != nil {
		return nil, err
	}

	failed, lats, hops := w.tally()
	r.Attempted, r.Failed = len(sched), failed
	r.add("setup_s", setupS, "s", c.SetupReps)
	r.add("sim_speed", w.vs/w.wall, "vs/s", 0)
	r.add("heap_kb_per_node", heapKB, "kB", 0)
	addLatency(r, "lookup", lats)
	r.add("hops_mean", mean(hops), "hops", len(hops))
	r.add("maint_bps_per_node", float64(maint)/float64(c.Ring.N)/w.vs, "B/s", 0)
	r.add("decl_cost_ratio", w.cpu/median(refCPU), "ratio", len(refCPU))
	r.add("fail_frac", ratio(float64(failed), float64(len(sched))), "frac", len(sched))
	addCommon(r, len(sched), failed, w.cpu)
	return r, nil
}

// chordrefCPU replays sched on a hand-coded chordref ring with the
// same addresses and topology, and returns the process CPU
// seconds of each replay's window (arrivals plus drain). Owners are
// computed before the window so the oracle's cost stays out of it.
func chordrefCPU(c chordCfg, live []string, sched []arrival, vs float64) ([]float64, error) {
	loop := eventloop.NewSim()
	netCfg := c.Ring.Net
	netCfg.Seed = deploymentSeed
	net := simnet.New(loop, netCfg)
	nodes := make([]*chordref.Node, len(live))
	for i, addr := range live {
		nd, err := chordref.NewNode(addr, loop, net, chordref.DefaultConfig(), int64(i)+1)
		if err != nil {
			return nil, fmt.Errorf("chordref: %w", err)
		}
		nodes[i] = nd
		loop.At(float64(i)*c.Ring.Spacing, func() {
			if i == 0 {
				nd.Start("")
			} else {
				nd.Start(live[0])
			}
		})
	}
	defer func() {
		for _, nd := range nodes {
			nd.Stop()
		}
	}()
	loop.Run(float64(len(live))*c.Ring.Spacing + c.Ring.Settle)

	index := make(map[string]int, len(live))
	for i, a := range live {
		index[a] = i
	}
	var cpu []float64
	for rep := 0; rep < c.RefReps; rep++ {
		runtime.GC()
		base := loop.Now()
		for _, a := range sched {
			from := nodes[index[a.pick(live)]]
			loop.At(base+a.at, func() { from.Lookup(a.key, func(string, int) {}) })
		}
		sw := startWatch()
		loop.Run(base + vs)
		_, cpuS := sw.stop()
		cpu = append(cpu, cpuS)
	}
	return cpu, nil
}

// traceChordLookup is the traced run: spans around compile and spawn,
// an untraced window for the overhead baseline, then a traced window
// with a CPU profile, counter snapshots after every slice, and spans
// for every lookup and hop.
func traceChordLookup(c chordCfg, o runOpts) (*result, error) {
	r := &result{}
	spans := newSpanLog()
	plan, err := compileMS(r, spans, nil, p2.ChordSource)
	if err != nil {
		return nil, err
	}
	if err := simSpawnMS(r, spans, c.Ring, plan); err != nil {
		return nil, err
	}

	h, rc := buildRing(c.Ring, spans)
	defer h.Close()
	r.check(rc >= minRing, "ring correctness %.4f below %.2f before the window", rc, minRing)
	dur := c.VSPerSec * o.seconds

	a := runLookups(h, drawArrivals(scheduleSeed(o.seed, 0), c.Rate, dur, 0, 0), dur+c.Drain, nil, nil)

	hops := watchHops(h)
	sched := drawArrivals(scheduleSeed(o.seed, 1), c.Rate, dur, 0, 0)
	tr := newLayerTracker(h.D)
	prof, err := startProfile()
	if err != nil {
		return nil, err
	}
	b := runLookups(h, sched, dur+c.Drain, spans, tr)
	shares, err := prof.stop()
	if err != nil {
		return nil, err
	}
	failed, _, _ := b.tally()
	r.Attempted, r.Failed = len(sched), failed
	tr.report(r, window{vs: b.vs, wall: b.wall, events: b.events, ops: len(sched), profile: shares})
	r.add("eventloop.shard_speedup", 0, "ratio", 0)
	r.add("trace.overhead_frac", 1-(b.vs/b.wall)/(a.vs/a.wall), "frac", 0)

	for i, lr := range b.results {
		if lr == nil {
			continue
		}
		end := lr.Completed
		if !lr.Done {
			end = b.base + b.vs
		}
		root := spans.add("lookup", "virtual", 0, 0, b.due(i), end)
		ts := hops.times(lr.EventID)
		for j, t := range ts {
			next := end
			if j+1 < len(ts) {
				next = ts[j+1]
			}
			spans.add("lookup.hop", "virtual", root, root, t, next)
		}
	}
	return r, spans.write(o.spansPath)
}

// hopLog records the virtual send time of every lookup hop, keyed by
// the lookup's event id, through a Watch on each node.
type hopLog struct {
	mu   sync.Mutex
	sent map[string][]float64
}

func watchHops(h *harness.Chord) *hopLog {
	l := &hopLog{sent: make(map[string][]float64)}
	for _, n := range h.D.Nodes() {
		n.Watch("lookup", func(ev p2.WatchEvent) {
			if ev.Dir != p2.DirSent {
				return
			}
			eid := ev.Tuple.Field(3).AsStr()
			l.mu.Lock()
			l.sent[eid] = append(l.sent[eid], ev.Time)
			l.mu.Unlock()
		})
	}
	return l
}

func (l *hopLog) times(eid string) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sent[eid]
}
