package main

// Per-layer counters for the traced run. Every number comes from a
// layer's public counters (engine.Stats, transport.Stats and PerDest,
// table and KV stats, simnet totals, runtime/metrics), snapshotted
// before the window and after each run slice, or from the window's CPU
// profile. Nothing here reaches into a layer's internals.

import (
	"runtime/metrics"

	"p2"
	"p2/internal/transport"
	"p2/internal/val"
)

// perLayerNames lists every per-layer metric in report order; a traced
// run reports all of them on every workload, 0 where the layer does no
// work (udpnet on a simulation, simnet on UDP).
var perLayerNames = []string{
	"pel.cpu_share", "id.cpu_share", "val.cpu_share", "tuple.cpu_share",
	"dataflow.cpu_share", "engine.cpu_share",
	"engine.probes_per_event", "engine.rules_fired_per_vs", "engine.dropped_frac",
	"runtime.gc_cpu_frac", "runtime.malloc_cpu_share",
	"runtime.alloc_objects_per_event", "runtime.alloc_bytes_per_event",
	"table.inserts_per_vs", "table.deletes_per_vs", "table.refresh_frac", "table.cpu_share",
	"kvs.repairs_per_op", "kvs.expiries_per_vs", "kvs.keys_per_node", "kvs.pending_p99",
	"transport.tuples_per_frame", "transport.wire_bytes_per_tuple",
	"transport.retransmit_frac", "transport.ack_piggyback_frac", "transport.drop_frac",
	"transport.drop_frac.retry_exhausted", "transport.drop_frac.session_closed",
	"transport.drop_frac.peer_dead", "transport.drop_frac.backlog_overflow",
	"transport.backlog_p99", "transport.cpu_share",
	"simnet.packets_per_vs", "simnet.loss_frac", "simnet.cpu_share",
	"eventloop.events_per_vs", "eventloop.events_per_wall_s", "eventloop.cpu_share",
	"eventloop.shard_speedup", "eventloop.queue_depth_p99",
	"udpnet.cpu_share", "client.issue_lag_p99_ms", "client.retry_frac",
	"planner.compile_ms", "engine.spawn_ms_per_node", "val.intern_entries",
	"trace.overhead_frac",
}

// nodeCounters is one node's cumulative counters.
type nodeCounters struct {
	rulesFired, derived, recv, dropped, probes int64

	tuplesSent, frames, retransmits, acksSent, acksPiggy, dataBytes int64
	drops                                                           transport.DropCounts

	inserts, deletes, refreshes int64
	repairs, expiries           int64
}

// accumulate adds sign*o to c field by field.
func (c *nodeCounters) accumulate(o nodeCounters, sign int64) {
	c.rulesFired += sign * o.rulesFired
	c.derived += sign * o.derived
	c.recv += sign * o.recv
	c.dropped += sign * o.dropped
	c.probes += sign * o.probes
	c.tuplesSent += sign * o.tuplesSent
	c.frames += sign * o.frames
	c.retransmits += sign * o.retransmits
	c.acksSent += sign * o.acksSent
	c.acksPiggy += sign * o.acksPiggy
	c.dataBytes += sign * o.dataBytes
	for i := range c.drops {
		c.drops[i] += sign * o.drops[i]
	}
	c.inserts += sign * o.inserts
	c.deletes += sign * o.deletes
	c.refreshes += sign * o.refreshes
	c.repairs += sign * o.repairs
	c.expiries += sign * o.expiries
}

// nodeSample is one node's counters plus its instantaneous gauges.
type nodeSample struct {
	nodeCounters
	backlogs []int
	queue    int
	keys     int
	pending  int
	hasKV    bool
}

func sampleNode(h *p2.Handle) (nodeSample, bool) {
	var s nodeSample
	err := h.Do(func(n *p2.Node) {
		st := n.Stats()
		s.rulesFired, s.derived, s.recv, s.dropped, s.probes =
			st.RulesFired, st.TuplesDerived, st.TuplesRecv, st.TuplesDropped, st.Probes
		tr := n.Transport()
		ts := tr.Stats()
		s.tuplesSent, s.frames, s.retransmits = ts.TuplesSent, ts.Frames, ts.Retransmits
		s.acksSent, s.acksPiggy, s.drops = ts.AcksSent, ts.AcksPiggybacked, ts.Dropped
		for _, d := range tr.PerDest() {
			s.dataBytes += d.Bytes
			s.backlogs = append(s.backlogs, d.Backlog)
		}
		for _, t := range n.TableStats() {
			s.inserts += t.Inserts
			s.deletes += t.Deletes
			s.refreshes += t.Refreshes
		}
		if kv, ok := n.KVStats(); ok {
			s.hasKV = true
			s.repairs, s.expiries, s.keys, s.pending = kv.Repairs, kv.Expiries, kv.Keys, kv.Pending
		}
		s.queue = n.NodeStat().Queue
	})
	return s, err == nil
}

// runtimeCounters are the process-wide runtime/metrics the layer
// report differences across the window.
type runtimeCounters struct{ allocObjs, allocBytes, gcCPU, totalCPU, idleCPU float64 }

func readRuntime() runtimeCounters {
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(samples)
	v := func(i int) float64 {
		switch samples[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(samples[i].Value.Uint64())
		case metrics.KindFloat64:
			return samples[i].Value.Float64()
		}
		return 0
	}
	return runtimeCounters{v(0), v(1), v(2), v(3), v(4)}
}

// layerTracker accumulates one traced window: node counters at the
// start, the latest counters seen per address (nodes that die keep
// their last sample, nodes born in the window count from zero), and
// gauge samples taken after every slice.
type layerTracker struct {
	d      *p2.Deployment
	before map[string]nodeCounters
	last   map[string]nodeCounters
	rt0    runtimeCounters
	rt1    runtimeCounters
	net0   p2.NetTotals
	net1   p2.NetTotals

	backlogs, queues, pendings []float64
	keys                       []float64
}

func newLayerTracker(d *p2.Deployment) *layerTracker {
	t := &layerTracker{d: d, before: make(map[string]nodeCounters), last: make(map[string]nodeCounters)}
	for _, h := range d.Nodes() {
		if s, ok := sampleNode(h); ok {
			t.before[h.Addr()] = s.nodeCounters
		}
	}
	t.net0 = d.NetTotals()
	t.rt0 = readRuntime()
	return t
}

// sample records every live node's counters and gauges.
func (t *layerTracker) sample() {
	t.keys = t.keys[:0]
	for _, h := range t.d.Nodes() {
		s, ok := sampleNode(h)
		if !ok {
			continue
		}
		t.last[h.Addr()] = s.nodeCounters
		for _, b := range s.backlogs {
			t.backlogs = append(t.backlogs, float64(b))
		}
		t.queues = append(t.queues, float64(s.queue))
		if s.hasKV {
			t.pendings = append(t.pendings, float64(s.pending))
			t.keys = append(t.keys, float64(s.keys))
		}
	}
}

// finish closes the window: call it as soon as the window ends, so
// the runtime totals exclude the report's own work.
func (t *layerTracker) finish() {
	t.sample()
	t.rt1 = readRuntime()
	t.net1 = t.d.NetTotals()
}

// window describes the traced window the tracker covered.
type window struct {
	vs, wall float64 // window length in deployment seconds and wall seconds
	events   int64   // event-loop events fired
	ops      int     // client operations issued
	// eventsFromRules counts strand executions as the events: a
	// wall-clock loop keeps no event counter.
	eventsFromRules bool
	profile         profileShares
	issueLagMS      []float64
	retryFrac       float64 // share of ops the client issued more than once
}

// report turns the tracker's deltas and the window's profile into the
// per-layer metrics that counters and the profile supply.
func (t *layerTracker) report(r *result, w window) {
	var d nodeCounters
	for addr, last := range t.last {
		d.accumulate(last, 1)
		d.accumulate(t.before[addr], -1)
	}
	rt, net := t.rt1, t.net1
	ev := float64(w.events)
	if w.eventsFromRules {
		ev = float64(d.rulesFired)
	}
	share := func(pkg string) float64 { return w.profile.Pkg[pkg] }

	for _, pkg := range []string{"pel", "id", "val", "tuple", "dataflow", "engine"} {
		r.add(pkg+".cpu_share", share(pkg), "frac", int(w.profile.Samples))
	}
	r.add("engine.probes_per_event", ratio(float64(d.probes), ev), "probes/event", 0)
	r.add("engine.rules_fired_per_vs", ratio(float64(d.rulesFired), w.vs), "1/vs", 0)
	r.add("engine.dropped_frac", ratio(float64(d.dropped), float64(d.derived+d.recv)), "frac", 0)

	busy := (rt.totalCPU - t.rt0.totalCPU) - (rt.idleCPU - t.rt0.idleCPU)
	r.add("runtime.gc_cpu_frac", ratio(rt.gcCPU-t.rt0.gcCPU, busy), "frac", 0)
	r.add("runtime.malloc_cpu_share", w.profile.Malloc, "frac", int(w.profile.Samples))
	r.add("runtime.alloc_objects_per_event", ratio(rt.allocObjs-t.rt0.allocObjs, ev), "objects/event", 0)
	r.add("runtime.alloc_bytes_per_event", ratio(rt.allocBytes-t.rt0.allocBytes, ev), "B/event", 0)

	r.add("table.inserts_per_vs", ratio(float64(d.inserts), w.vs), "1/vs", 0)
	r.add("table.deletes_per_vs", ratio(float64(d.deletes), w.vs), "1/vs", 0)
	r.add("table.refresh_frac", ratio(float64(d.refreshes), float64(d.inserts+d.refreshes)), "frac", 0)
	r.add("table.cpu_share", share("table"), "frac", int(w.profile.Samples))

	r.add("kvs.repairs_per_op", ratio(float64(d.repairs), float64(w.ops)), "1/op", 0)
	r.add("kvs.expiries_per_vs", ratio(float64(d.expiries), w.vs), "1/vs", 0)
	r.add("kvs.keys_per_node", mean(t.keys), "keys", len(t.keys))
	r.add("kvs.pending_p99", quantile(t.pendings, 0.99), "ops", len(t.pendings))

	sent := float64(d.tuplesSent)
	r.add("transport.tuples_per_frame", ratio(sent, float64(d.frames)), "tuples/frame", 0)
	r.add("transport.wire_bytes_per_tuple", ratio(float64(d.dataBytes), sent), "B/tuple", 0)
	r.add("transport.retransmit_frac", ratio(float64(d.retransmits), sent), "frac", 0)
	r.add("transport.ack_piggyback_frac", ratio(float64(d.acksPiggy), float64(d.acksPiggy+d.acksSent)), "frac", 0)
	r.add("transport.drop_frac", ratio(float64(d.drops.Total()), sent), "frac", 0)
	for _, c := range []struct {
		name  string
		cause transport.DropCause
	}{
		{"retry_exhausted", transport.RetryExhausted},
		{"session_closed", transport.SessionClosed},
		{"peer_dead", transport.PeerDead},
		{"backlog_overflow", transport.BacklogOverflow},
	} {
		r.add("transport.drop_frac."+c.name, ratio(float64(d.drops[c.cause]), sent), "frac", 0)
	}
	r.add("transport.backlog_p99", quantile(t.backlogs, 0.99), "tuples", len(t.backlogs))
	r.add("transport.cpu_share", share("transport"), "frac", int(w.profile.Samples))

	r.add("simnet.packets_per_vs", ratio(float64(net.PacketsSent-t.net0.PacketsSent), w.vs), "1/vs", 0)
	r.add("simnet.loss_frac", ratio(float64(net.PacketsLost-t.net0.PacketsLost), float64(net.PacketsSent-t.net0.PacketsSent)), "frac", 0)
	r.add("simnet.cpu_share", share("simnet"), "frac", int(w.profile.Samples))

	r.add("eventloop.events_per_vs", ratio(ev, w.vs), "1/vs", 0)
	r.add("eventloop.events_per_wall_s", ratio(ev, w.wall), "1/s", 0)
	r.add("eventloop.cpu_share", share("eventloop"), "frac", int(w.profile.Samples))
	r.add("eventloop.queue_depth_p99", quantile(t.queues, 0.99), "events", len(t.queues))

	r.add("udpnet.cpu_share", share("udpnet"), "frac", int(w.profile.Samples))
	r.add("client.issue_lag_p99_ms", quantile(w.issueLagMS, 0.99), "ms", len(w.issueLagMS))
	r.add("client.retry_frac", w.retryFrac, "frac", w.ops)

	entries, _ := val.InternStats()
	r.add("val.intern_entries", float64(entries), "count", 0)
}
