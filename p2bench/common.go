package main

import (
	"fmt"
	"time"

	"p2"
)

// runOpts are the command-line choices one run is made with.
type runOpts struct {
	seed      int64
	seconds   float64
	trace     bool
	spansPath string
}

// addCommon reports the end-to-end metrics every workload shares: the
// share of ops answered correctly and the process CPU spent per op
// issued (background maintenance included, at the workload's fixed
// offered rate).
func addCommon(r *result, attempted, failed int, cpu float64) {
	r.add("done_frac", 1-ratio(float64(failed), float64(attempted)), "frac", attempted)
	r.add("cpu_ms_per_op", ratio(cpu*1000, float64(attempted)), "ms", attempted)
}

// compileReps is how many compiles planner.compile_ms takes the
// median of.
const compileReps = 5

// compileMS compiles srcs compileReps times inside spans, reports the
// median as planner.compile_ms and returns the plan.
func compileMS(r *result, spans *spanLog, defines map[string]p2.Value, srcs ...string) (*p2.Plan, error) {
	var plan *p2.Plan
	var err error
	for i := 0; i < compileReps; i++ {
		spans.wall("planner.compile", func() { plan, err = p2.CompileMulti(defines, srcs...) })
		if err != nil {
			return nil, fmt.Errorf("compile: %w", err)
		}
	}
	r.add("planner.compile_ms", median(spans.durations("planner.compile"))*1000, "ms", compileReps)
	return plan, nil
}

// simSpawnMS spawns a ring's worth of nodes of plan into a fresh
// simulated deployment on the ring's topology, one span per Spawn, and
// reports the median as engine.spawn_ms_per_node.
func simSpawnMS(r *result, spans *spanLog, s ringSpec, plan *p2.Plan) error {
	d, err := p2.NewDeployment(p2.Simulated, p2.WithTopology(s.Net), p2.WithShards(s.Shards))
	if err != nil {
		return fmt.Errorf("spawn timing: %w", err)
	}
	defer d.Close()
	for i := 0; i < s.N; i++ {
		addr := fmt.Sprintf("n%d:p2", i)
		spans.wall("engine.spawn", func() { _, err = d.Spawn(addr, plan) })
		if err != nil {
			return fmt.Errorf("spawn timing: %w", err)
		}
	}
	r.add("engine.spawn_ms_per_node", median(spans.durations("engine.spawn"))*1000, "ms", s.N)
	return nil
}

// secs converts seconds to a time.Duration.
func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
