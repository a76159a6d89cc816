package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// Tiny configurations: the same code paths at a scale that runs in
// seconds.
func tinyChord(shards int) chordCfg {
	c := chordLookupConfig()
	c.Ring.N, c.Ring.Shards = 16, shards
	c.Rate, c.Drain, c.SetupReps, c.RefReps = 5, 10, 1, 1
	return c
}

func tinyKVChurn(shards int) kvChurnCfg {
	c := kvChurnConfig()
	c.Ring.N, c.Ring.Shards = 24, shards
	c.Session, c.Rate, c.VSPerSec, c.Drain, c.SetupReps = 120, 5, 10, 10, 1
	return c
}

func tinyKVUDP() kvUDPCfg {
	c := kvUDPConfig()
	c.N, c.Rate, c.SetupReps = 4, 50, 1
	c.Ladder, c.StepSecs = []float64{100}, 0.5
	return c
}

func tinyWorkloads() []workloadDef {
	return []workloadDef{
		{"chord-lookup", func(o runOpts) (*result, error) { return runChordLookup(tinyChord(1), o) }},
		{"kv-churn", func(o runOpts) (*result, error) { return runKVChurnWorkload(tinyKVChurn(2), o) }},
		{"kv-udp", func(o runOpts) (*result, error) { return runKVUDP(tinyKVUDP(), o) }},
	}
}

// specificNames are the end-to-end metrics each workload prints above
// the JSON line, beyond the shared ones.
var specificNames = map[string][]string{
	"chord-lookup": {"sim_speed", "lookup_p50_ms", "lookup_p99_ms", "hops_mean",
		"maint_bps_per_node", "decl_cost_ratio", "fail_frac"},
	"kv-churn": {"sim_speed", "put_p50_ms", "put_p99_ms", "get_p50_ms", "get_p99_ms",
		"fail_frac", "stale_frac"},
	"kv-udp": {"put_p50_ms", "put_p99_ms", "get_p50_ms", "get_p99_ms",
		"fail_frac", "stale_frac", "max_rate_ops", "issue_lag_p99_ms", "retry_frac"},
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// readBenchmarkJSON returns the metric names and units BENCHMARK.json
// declares.
func readBenchmarkJSON(t *testing.T) (e2e, layers []declared) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec.EndToEnd, spec.PerLayer
}

// checkDeclared fails unless r reports every declared metric with the
// declared unit.
func checkDeclared(t *testing.T, workload string, r *result, want []declared) {
	t.Helper()
	for _, d := range want {
		m, ok := r.get(d.Name)
		if !ok {
			t.Errorf("%s: metric %s not reported", workload, d.Name)
			continue
		}
		if m.Unit != d.Unit {
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", workload, d.Name, m.Unit, d.Unit)
		}
	}
}

func TestDeclaredNamesMatchCode(t *testing.T) {
	e2e, layers := readBenchmarkJSON(t)
	names := func(ds []declared) []string {
		var out []string
		for _, d := range ds {
			out = append(out, d.Name)
		}
		return out
	}
	if got := names(e2e); !reflect.DeepEqual(got, endToEndNames) {
		t.Errorf("BENCHMARK.json end_to_end %v, code %v", got, endToEndNames)
	}
	if got := names(layers); !reflect.DeepEqual(got, perLayerNames) {
		t.Errorf("BENCHMARK.json per_layer %v, code %v", got, perLayerNames)
	}
}

// TestEveryMetricPrintsWithUnit runs each workload at tiny scale,
// untraced and traced, and checks that the checks pass and that every
// declared metric is reported with its unit.
func TestEveryMetricPrintsWithUnit(t *testing.T) {
	e2e, layers := readBenchmarkJSON(t)
	for _, w := range tinyWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			r, err := w.run(runOpts{seed: 3, seconds: 1})
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Problems) > 0 {
				t.Fatalf("checks failed: %v", r.Problems)
			}
			checkDeclared(t, w.name, r, e2e)
			for _, n := range specificNames[w.name] {
				if m, ok := r.get(n); !ok || m.Unit == "" {
					t.Errorf("metric %s missing or without unit", n)
				}
			}
			var out bytes.Buffer
			r.print(&out, w.name)
			for _, m := range r.Metrics {
				if !strings.Contains(out.String(), m.Name) || !strings.Contains(out.String(), m.Unit) {
					t.Errorf("printed report lacks %s or its unit", m.Name)
				}
			}

			spans := filepath.Join(t.TempDir(), "spans.jsonl")
			tr, err := w.run(runOpts{seed: 3, seconds: 1, trace: true, spansPath: spans})
			if err != nil {
				t.Fatal(err)
			}
			if len(tr.Problems) > 0 {
				t.Fatalf("traced checks failed: %v", tr.Problems)
			}
			checkDeclared(t, w.name, tr, layers)
			if fi, err := os.Stat(spans); err != nil || fi.Size() == 0 {
				t.Errorf("traced run wrote no spans: %v", err)
			}
		})
	}
}

// TestRetriedOpsAnswerCorrectly re-issues kv-udp ops before most
// answers can arrive, so many ops have several attempts in flight, and
// checks that the answers still pass the checks and that retries are
// counted.
func TestRetriedOpsAnswerCorrectly(t *testing.T) {
	c := tinyKVUDP()
	c.Retry = time.Millisecond
	r, err := runKVUDP(c, runOpts{seed: 4, seconds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Problems) > 0 || r.Failed > 0 {
		t.Fatalf("failed %d of %d; checks: %v", r.Failed, r.Attempted, r.Problems)
	}
	if m, _ := r.get("retry_frac"); m.Value == 0 {
		t.Errorf("retry_frac %v with a 1 ms retry", m.Value)
	}
}

// TestRunPrintsOneJSONLine checks the command's output contract: the
// last line is one JSON object with exactly the four keys, carrying
// every end-to-end metric.
func TestRunPrintsOneJSONLine(t *testing.T) {
	saved := workloads
	workloads = tinyWorkloads()[:1]
	defer func() { workloads = saved }()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "chord-lookup", "--seed", "2", "--seconds", "1", "--trace", "0"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var out map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range out {
		keys = append(keys, k)
	}
	if len(keys) != 4 || out["correct"] == nil || out["attempted"] == nil || out["failed"] == nil || out["metrics"] == nil {
		t.Fatalf("keys %v", keys)
	}
	var metrics map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	if err := json.Unmarshal(out["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(endToEndNames) {
		t.Fatalf("metrics %v, want %v", metrics, endToEndNames)
	}
	for _, n := range endToEndNames {
		if m, ok := metrics[n]; !ok || m.Unit == "" || m.Value == 0 {
			t.Errorf("metric %s: %+v", n, m)
		}
	}
	if code := run([]string{"--workload", "nope"}, &stdout, &stderr); code == 0 {
		t.Error("unknown workload exited 0")
	}
}

// virtualMetrics are the metrics measured in virtual time: a seed must
// reproduce them bit for bit at any shard count.
var virtualMetrics = []string{
	"lookup_p50_ms", "lookup_p99_ms", "hops_mean", "maint_bps_per_node",
	"put_p50_ms", "put_p99_ms", "get_p50_ms", "get_p99_ms",
	"fail_frac", "stale_frac", "done_frac",
}

func virtualOf(t *testing.T, r *result, err error) map[string]float64 {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{"attempted": float64(r.Attempted), "failed": float64(r.Failed)}
	for _, n := range virtualMetrics {
		if m, ok := r.get(n); ok {
			out[n] = m.Value
		}
	}
	return out
}

func TestSameSeedReproducesVirtualMetrics(t *testing.T) {
	o := runOpts{seed: 5, seconds: 1}
	for _, wl := range []struct {
		name string
		run  func(shards int, o runOpts) (*result, error)
	}{
		{"chord-lookup", func(s int, o runOpts) (*result, error) { return runChordLookup(tinyChord(s), o) }},
		{"kv-churn", func(s int, o runOpts) (*result, error) { return runKVChurnWorkload(tinyKVChurn(s), o) }},
	} {
		t.Run(wl.name, func(t *testing.T) {
			get := func(shards int, o runOpts) map[string]float64 {
				r, err := wl.run(shards, o)
				return virtualOf(t, r, err)
			}
			a, b, c := get(1, o), get(1, o), get(2, o)
			if len(a) < 6 {
				t.Fatalf("too few virtual metrics: %v", a)
			}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("same seed, shards=1 twice:\n%v\n%v", a, b)
			}
			if !reflect.DeepEqual(a, c) {
				t.Errorf("same seed, shards=1 vs shards=2:\n%v\n%v", a, c)
			}
			d := get(1, runOpts{seed: 6, seconds: 1})
			if reflect.DeepEqual(a, d) {
				t.Errorf("seeds 5 and 6 gave identical metrics %v", a)
			}
		})
	}
}

func TestDifferentSeedChangesSchedule(t *testing.T) {
	a := drawArrivals(scheduleSeed(1, 0), 50, 10, 64, 0.5)
	b := drawArrivals(scheduleSeed(1, 0), 50, 10, 64, 0.5)
	c := drawArrivals(scheduleSeed(2, 0), 50, 10, 64, 0.5)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed drew different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds drew the same schedule")
	}
	if len(a) < 400 || len(a) > 600 {
		t.Errorf("rate 50 over 10 s drew %d arrivals", len(a))
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"p2/internal/val.Sub":                        "val",
		"p2/internal/engine.(*Node).fire.func1":      "engine",
		"p2/internal/eventloop.(*ShardedSim).Run":    "eventloop",
		"p2.(*Deployment).Run":                       "",
		"runtime.mallocgc":                           "",
		"p2/internal/dataflow.(*Join).Push":          "dataflow",
		"p2/internal/transport.(*Transport).Send-fm": "transport",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
