package main

// kv-udp: a Chord+KV ring on real UDP loopback sockets, in process,
// with the compressed protocol timers of examples/kv, serving an
// open-loop PUT/GET mix at a fixed rate and then a rate ladder. It is
// the only workload where CPU cost becomes client-visible latency: it
// exercises udpnet, eventloop.Real and real datagrams, while simnet and
// the shard barrier do nothing.
//
// Ops are timed with the benchmark's own monotonic clock from each op's
// scheduled send time, not with KVOp.Latency: on UDP that subtracts the
// deployment control loop's clock from the node loop's clock, two
// eventloop.Real instances started at different moments.

import (
	"fmt"
	"math"
	"net"
	"runtime"
	"sort"
	"sync"
	"time"

	"p2"
)

type kvUDPCfg struct {
	N         int
	Rate      float64 // ops per second in the measured window
	Keys      int
	PutFrac   float64
	OpTimeout time.Duration
	// Retry is how long the client waits for an answer before it issues
	// the op again through the same node. KV ops are single-shot
	// datagram flows, so one routed through a finger the ring is still
	// repairing is simply lost; the client retries, as examples/kv's
	// does, until OpTimeout after the op's scheduled send time.
	Retry time.Duration
	// The rate ladder for max_rate_ops: steps of StepSecs each, an op
	// counting as lost after StepTimeout; a step passes with p99 at or
	// under P99LimitMS, at least MinDone of its ops answered, and no
	// growing backlog.
	Ladder      []float64
	StepSecs    float64
	StepTimeout time.Duration
	P99LimitMS  float64
	MinDone     float64
	SetupReps   int
	WarmSecs    float64       // unmeasured load on each build before its window
	Converge    time.Duration // how long a build may take to reach a correct ring
}

// serveWait is how long a correct ring may take to answer GETs through
// every node for every key before the run gives up on it.
const serveWait = 15 * time.Second

func kvUDPConfig() kvUDPCfg {
	return kvUDPCfg{
		N: 8, Rate: 300, Keys: 64, PutFrac: 0.5, OpTimeout: 5 * time.Second,
		Retry:  time.Second,
		Ladder: []float64{500, 700, 1000, 1400}, StepSecs: 2, StepTimeout: time.Second,
		P99LimitMS: 50, MinDone: 0.999,
		SetupReps: 3, WarmSecs: 1, Converge: 60 * time.Second,
	}
}

// udpDefines are examples/kv's compressed timers: stabilization every
// second, failure detection after 4 s of silence, anti-entropy every
// 2 s, so the ring converges in wall-clock seconds.
var udpDefines = map[string]p2.Value{
	"tFix":       p2.Int(2),
	"tStabilize": p2.Int(1),
	"tPing":      p2.Int(1),
	"tJoinRetry": p2.Int(3),
	"tRejoinAll": p2.Int(10),
	"tDead":      p2.Int(4),
	"tKvSync":    p2.Int(2),
}

// udpRing is a running UDP deployment and its nodes in spawn order.
type udpRing struct {
	d       *p2.Deployment
	handles []*p2.Handle
	addrs   []string
}

// freePorts reserves n loopback UDP ports from the kernel, holding all
// of them until the last is chosen so they are distinct, then releases
// them for the nodes to bind.
func freePorts(n int) ([]string, error) {
	var addrs []string
	var conns []net.PacketConn
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	for i := 0; i < n; i++ {
		c, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve loopback port: %w", err)
		}
		conns = append(conns, c)
		addrs = append(addrs, c.LocalAddr().String())
	}
	return addrs, nil
}

// buildUDP compiles the plan, spawns the ring on run-time ports, waits
// until every node's bestSucc is its true successor and then until the
// ring serves. A port that cannot be bound, or a correct ring that does
// not serve, aborts with an error.
func buildUDP(c kvUDPCfg, spans *spanLog) (*udpRing, float64, error) {
	plan, err := p2.CompileMulti(udpDefines, p2.ChordSource, p2.KVSource)
	if err != nil {
		return nil, 0, fmt.Errorf("compile: %w", err)
	}
	d, err := p2.NewDeployment(p2.UDP, p2.WithSeed(deploymentSeed))
	if err != nil {
		return nil, 0, fmt.Errorf("udp deployment: %w", err)
	}
	addrs, err := freePorts(c.N)
	if err != nil {
		d.Close()
		return nil, 0, err
	}
	ring := &udpRing{d: d, addrs: addrs}
	for i, a := range addrs {
		var h *p2.Handle
		spans.wall("engine.spawn", func() { h, err = d.Spawn(a, plan) })
		if err != nil {
			d.Close()
			return nil, 0, fmt.Errorf("bind loopback port for node %d: %w", i, err)
		}
		lm := "-"
		if i > 0 {
			lm = addrs[0]
		}
		ring.handles = append(ring.handles, h)
		if err := h.AddFact("landmark", p2.Str(a), p2.Str(lm)); err != nil {
			d.Close()
			return nil, 0, fmt.Errorf("landmark fact: %w", err)
		}
		if err := h.AddFact("join", p2.Str(a), p2.Str(a+"!boot")); err != nil {
			d.Close()
			return nil, 0, fmt.Errorf("join fact: %w", err)
		}
	}
	rc := ring.correctness()
	for deadline := time.Now().Add(c.Converge); rc < 1 && time.Now().Before(deadline); rc = ring.correctness() {
		time.Sleep(20 * time.Millisecond)
	}
	if rc == 1 {
		if err := ring.awaitServing(c); err != nil {
			d.Close()
			return nil, 0, err
		}
	}
	return ring, rc, nil
}

// awaitServing waits until the ring answers GETs through every node
// for every key. A correct bestSucc everywhere is not enough: right
// after it, GETs through one or two nodes could go unanswered for about
// a second, and now and then GETs for a dozen keys went unanswered from
// every node for several seconds, retries included, although the ring
// stayed correct. Each round sends one GET through every node for every
// fourth key, a different quarter each round; the ring serves once four
// rounds in a row answer in full within a second. This also installs
// the client's response watchers on every node before the window.
func (u *udpRing) awaitServing(c kvUDPCfg) error {
	const quarters, roundTimeout = 4, time.Second
	deadline := time.Now().Add(serveWait)
	for round, passed := 0, 0; passed < quarters; round++ {
		if !time.Now().Before(deadline) {
			return fmt.Errorf("ring correct but not answering through every node for every key within %v", serveWait)
		}
		var ops []*p2.KVOp
		for _, h := range u.handles {
			for k := round % quarters; k < c.Keys; k += quarters {
				op, err := u.d.KV().Get(h, kvKey(k))
				if err != nil {
					return fmt.Errorf("readiness get: %w", err)
				}
				ops = append(ops, op)
			}
		}
		end := time.Now().Add(roundTimeout)
		passed++
		for _, op := range ops {
			if !op.Wait(time.Until(end)) {
				passed = 0
			}
		}
	}
	return nil
}

// correctness is the share of nodes whose bestSucc is their true
// successor on the identifier ring.
func (u *udpRing) correctness() float64 {
	sorted := append([]string(nil), u.addrs...)
	sort.Slice(sorted, func(i, j int) bool { return p2.Hash(sorted[i]).Less(p2.Hash(sorted[j])) })
	succ := make(map[string]string, len(sorted))
	for i, a := range sorted {
		succ[a] = sorted[(i+1)%len(sorted)]
	}
	good := 0
	for _, h := range u.handles {
		if rows := h.Scan("bestSucc"); len(rows) == 1 && rows[0].Field(2).AsStr() == succ[h.Addr()] {
			good++
		}
	}
	return float64(good) / float64(len(u.handles))
}

// udpWindow is one open-loop window: per op, the attempt that
// answered (or the first, if none did), whether one did, its latency
// from the scheduled send time, how late the generator issued it, and
// how many times the client re-issued it.
type udpWindow struct {
	sched     []arrival
	ops       []kvIssued
	done      []bool
	lat, lag  []float64 // seconds
	retries   []int
	wall, cpu float64
	t0        time.Time
}

// runUDP issues sched from one generator goroutine, each op at its
// scheduled time whether or not earlier ops have answered, re-issues an
// op left unanswered for retry, and counts it answered when any of its
// attempts answers within timeout of its scheduled time.
func runUDP(u *udpRing, sched []arrival, retry, timeout time.Duration, writes map[int64]kvWrite) *udpWindow {
	kv := u.d.KV()
	n := len(sched)
	w := &udpWindow{sched: sched, ops: make([]kvIssued, n), done: make([]bool, n),
		lat: make([]float64, n), lag: make([]float64, n), retries: make([]int, n)}
	var mu sync.Mutex // guards writes: retries are issued from the waiters
	issue := func(i int) (kvIssued, error) {
		a := sched[i]
		h := u.handles[int(a.node*float64(len(u.handles)))]
		key := kvKey(a.kv)
		if !a.put {
			op, err := kv.Get(h, key)
			return kvIssued{op: op}, err
		}
		v := fmt.Sprintf("v%d", i)
		op, err := kv.Put(h, key, v)
		if err == nil {
			mu.Lock()
			writes[op.Ver] = kvWrite{key, v}
			mu.Unlock()
		}
		return kvIssued{op: op, put: true, value: v}, err
	}
	var wg sync.WaitGroup
	runtime.GC() // start every window at the same point of the GC cycle
	sw := startWatch()
	w.t0 = sw.wall
	for i, a := range sched {
		due := w.t0.Add(secs(a.at))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		w.lag[i] = time.Since(due).Seconds()
		first, err := issue(i)
		if err != nil {
			continue
		}
		w.ops[i] = first
		wg.Add(1)
		go func() {
			defer wg.Done()
			deadline := due.Add(timeout)
			// Each attempt's watcher sends at most once and there are at
			// most timeout/retry+1 attempts, so no send blocks.
			answered := make(chan kvIssued, int(timeout/retry)+1)
			watch := func(k kvIssued) {
				go func() {
					if k.op.Wait(time.Until(deadline)) {
						answered <- k
					}
				}()
			}
			watch(first)
			for {
				wait, again := time.Until(deadline), true
				if wait > retry {
					wait = retry
				} else {
					again = false
				}
				// A stopped timer, not time.After: under go 1.22 an
				// unfired time.After timer kept the closed ring reachable
				// into the next set-up's heap reading.
				t := time.NewTimer(wait)
				select {
				case k := <-answered:
					t.Stop()
					w.lat[i] = time.Since(due).Seconds()
					w.ops[i], w.done[i] = k, true
					return
				case <-t.C:
				}
				if !again {
					return
				}
				if k, err := issue(i); err == nil {
					w.retries[i]++
					watch(k)
				}
			}
		}()
	}
	wg.Wait()
	w.wall, w.cpu = sw.stop()
	return w
}

// retried counts the window's ops the client issued more than once.
func (w *udpWindow) retried() int {
	n := 0
	for _, r := range w.retries {
		if r > 0 {
			n++
		}
	}
	return n
}

func (w *udpWindow) tally(writes map[int64]kvWrite) kvTally {
	return tallyKV(w.ops,
		func(i int) bool { return w.done[i] },
		func(i int) float64 { return w.lat[i] },
		writes)
}

// sustains reports whether a window met the latency limit: p99 at or
// under limitMS with unanswered ops counted as missing it, at least
// minDone answered, and no growing backlog — the last quarter's median
// latency within twice the first quarter's plus 5 ms.
func (w *udpWindow) sustains(limitMS, minDone float64) bool {
	all := make([]float64, len(w.sched))
	answered := 0
	for i := range all {
		all[i] = math.Inf(1)
		if w.done[i] {
			all[i] = w.lat[i] * 1000
			answered++
		}
	}
	q := len(all) / 4
	if q == 0 || float64(answered) < minDone*float64(len(all)) {
		return false
	}
	first := median(append([]float64(nil), all[:q]...))
	last := median(append([]float64(nil), all[len(all)-q:]...))
	return quantile(all, 0.99) <= limitMS && last <= 2*first+5
}

// maxRate climbs the ladder from the measured window's rate and
// returns the highest rate sustained, stopping at the first that is not.
func maxRate(u *udpRing, c kvUDPCfg, seed int64, main *udpWindow, writes map[int64]kvWrite) float64 {
	if !main.sustains(c.P99LimitMS, c.MinDone) {
		return 0
	}
	best := c.Rate
	for i, rate := range c.Ladder {
		sched := drawArrivals(scheduleSeed(seed, 10+i), rate, c.StepSecs, c.Keys, c.PutFrac)
		if !runUDP(u, sched, c.Retry, c.StepTimeout, writes).sustains(c.P99LimitMS, c.MinDone) {
			break
		}
		best = rate
	}
	return best
}

// runKVUDP builds the ring SetupReps times and measures a share of the
// window on each build. Ports, and so node identifiers and the ring's
// layout, differ between builds; pooling the builds averages over
// layouts instead of letting one layout set the run's numbers. Each
// build first carries WarmSecs of the same load, unmeasured, so the
// window starts with the ring's routing state and caches warm.
func runKVUDP(c kvUDPCfg, o runOpts) (*result, error) {
	if o.trace {
		return traceKVUDP(c, o)
	}
	r := &result{}
	var setups, heaps, lagMS []float64
	var tally kvTally
	var attempted, retried int
	var cpu, maxOps float64
	for rep := 0; rep < c.SetupReps; rep++ {
		goroutines := runtime.NumGoroutine()
		heap0 := liveHeap()
		start := time.Now()
		ring, rc, err := buildUDP(c, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		r.check(rc >= minRing, "ring correctness %.3f below %.2f before the window", rc, minRing)
		heaps = append(heaps, (liveHeap()-heap0)/float64(c.N)/1024)

		writes := make(map[int64]kvWrite)
		runUDP(ring, drawArrivals(scheduleSeed(o.seed, 50+rep), c.Rate, c.WarmSecs, c.Keys, c.PutFrac), c.Retry, c.OpTimeout, writes)
		sched := drawArrivals(scheduleSeed(o.seed, rep), c.Rate, o.seconds/float64(c.SetupReps), c.Keys, c.PutFrac)
		w := runUDP(ring, sched, c.Retry, c.OpTimeout, writes)
		tally.merge(w.tally(writes))
		attempted += len(sched)
		retried += w.retried()
		cpu += w.cpu
		for _, l := range w.lag {
			lagMS = append(lagMS, l*1000)
		}
		if rep == c.SetupReps-1 {
			maxOps = maxRate(ring, c, o.seed, w, writes)
		}
		ring.d.Close()
		// Close returns before the nodes' loop and socket goroutines
		// exit; until they do, the closed ring is live heap that the
		// next build's control reading would count.
		for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > goroutines && time.Now().Before(deadline); {
			time.Sleep(10 * time.Millisecond)
		}
	}
	r.add("setup_s", median(setups), "s", c.SetupReps)
	r.add("heap_kb_per_node", median(heaps), "kB", c.SetupReps)
	tally.report(r, attempted, cpu)
	r.add("max_rate_ops", maxOps, "ops/s", len(c.Ladder)+1)
	r.add("issue_lag_p99_ms", quantile(lagMS, 0.99), "ms", len(lagMS))
	r.add("retry_frac", ratio(float64(retried), float64(attempted)), "frac", attempted)
	return r, nil
}

// traceKVUDP is the traced run: compile and spawn spans, an untraced
// window for the overhead baseline, then a traced window with a CPU
// profile, node counters and gauges sampled every 100 ms, and a span
// per op from its scheduled send time to its answer.
func traceKVUDP(c kvUDPCfg, o runOpts) (*result, error) {
	r := &result{}
	spans := newSpanLog()
	if _, err := compileMS(r, spans, udpDefines, p2.ChordSource, p2.KVSource); err != nil {
		return nil, err
	}
	ring, rc, err := buildUDP(c, spans)
	if err != nil {
		return nil, err
	}
	defer ring.d.Close()
	r.add("engine.spawn_ms_per_node", median(spans.durations("engine.spawn"))*1000, "ms", c.N)
	r.check(rc >= minRing, "ring correctness %.3f below %.2f before the window", rc, minRing)

	writes := make(map[int64]kvWrite)
	schedA := drawArrivals(scheduleSeed(o.seed, 0), c.Rate, o.seconds, c.Keys, c.PutFrac)
	a := runUDP(ring, schedA, c.Retry, c.OpTimeout, writes)

	schedB := drawArrivals(scheduleSeed(o.seed, 1), c.Rate, o.seconds, c.Keys, c.PutFrac)
	tr := newLayerTracker(ring.d)
	prof, err := startProfile()
	if err != nil {
		return nil, err
	}
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				tr.sample()
			}
		}
	}()
	b := runUDP(ring, schedB, c.Retry, c.OpTimeout, writes)
	close(stop)
	<-sampled
	tr.finish()
	shares, err := prof.stop()
	if err != nil {
		return nil, err
	}
	t := b.tally(writes)
	r.Attempted, r.Failed = len(schedB), t.failed
	r.check(t.wrong == 0, "%d GETs returned a value not written at their version; first: %s", t.wrong, t.firstWrong)
	lagMS := make([]float64, len(b.lag))
	for i, l := range b.lag {
		lagMS[i] = l * 1000
	}
	tr.report(r, window{vs: b.wall, wall: b.wall, ops: len(schedB), profile: shares,
		issueLagMS: lagMS, retryFrac: ratio(float64(b.retried()), float64(len(schedB))), eventsFromRules: true})
	r.add("eventloop.shard_speedup", 0, "ratio", 0)
	r.add("trace.overhead_frac", 1-(a.cpu/float64(len(schedA)))/(b.cpu/float64(len(schedB))), "frac", 0)
	base := b.t0.Sub(spans.t0).Seconds()
	for i, k := range b.ops {
		if k.op == nil {
			continue
		}
		end := base + schedB[i].at + b.lat[i]
		if !b.done[i] {
			end = base + schedB[i].at + c.OpTimeout.Seconds()
		}
		spans.add("kv."+k.op.Kind, "wall", 0, 0, base+schedB[i].at, end)
	}
	return r, spans.write(o.spansPath)
}
