// Command p2bench is the repository's end-to-end benchmark. It runs one
// workload against the P2 system from the outside — through
// p2.Deployment, Handle and KVClient, internal/harness and
// internal/chordref — checks that the outputs are right, prints every
// metric with its unit and sample count, and ends with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With --trace 0 the JSON carries the end-to-end metrics; with
// --trace 1 a separate traced run carries the per-layer metrics and
// writes its spans to --spans. See README.md for the workloads and
// metrics.
//
//	bash p2bench/run.sh --workload chord-lookup --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
)

// endToEndNames are the metrics the JSON line carries with --trace 0:
// the ones every workload defines and measures steadily. Latencies are
// printed above it: in virtual time they repeat exactly for a seed, and
// kv-udp's wall-clock latencies swing with CPU steal on a shared
// machine by more than any bound a gate could use.
var endToEndNames = []string{"setup_s", "done_frac", "cpu_ms_per_op", "heap_kb_per_node"}

type workloadDef struct {
	name string
	run  func(runOpts) (*result, error)
}

var workloads = []workloadDef{
	{"chord-lookup", func(o runOpts) (*result, error) { return runChordLookup(chordLookupConfig(), o) }},
	{"kv-churn", func(o runOpts) (*result, error) { return runKVChurnWorkload(kvChurnConfig(), o) }},
	{"kv-udp", func(o runOpts) (*result, error) { return runKVUDP(kvUDPConfig(), o) }},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("p2bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: chord-lookup, kv-churn or kv-udp")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "measured window, in wall seconds on the reference machine")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	spans := fs.String("spans", "", "file the traced run writes its spans to (default .bench_build/spans/<workload>-<seed>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "p2bench: need --workload chord-lookup|kv-churn|kv-udp, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	if *spans == "" {
		*spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.jsonl", *name, *seed))
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}

	res, err := wl.run(runOpts{seed: *seed, seconds: *seconds, trace: *trace == 1, spansPath: *spans})
	if err != nil {
		fmt.Fprintf(stderr, "p2bench: %s: %v\n", *name, err)
		return 1
	}
	res.print(stdout, *name)

	names := endToEndNames
	if *trace == 1 {
		names = perLayerNames
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(names))
	for _, n := range names {
		m, ok := res.get(n)
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(stderr, "p2bench: %s: metric %s missing or not finite\n", *name, n)
			return 1
		}
		metrics[n] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(res.Problems) == 0, res.Attempted, res.Failed, metrics})
	if err != nil {
		fmt.Fprintf(stderr, "p2bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if len(res.Problems) > 0 || res.Attempted < 1 {
		return 1
	}
	return 0
}
