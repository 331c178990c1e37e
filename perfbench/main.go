// Command perfbench is the repository's end-to-end benchmark: it starts
// ufpserve, drives one named workload against it from this process,
// checks every answer against an in-process replay, and prints the
// metrics BENCHMARK.json names as one JSON line.
//
//	perfbench -server <ufpserve binary> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// runs the workload twice, untraced and then with the span recorder on,
// and reports the per-layer metrics plus the tracing overhead. run.sh
// builds both binaries from the checkout and invokes this. See
// README.md for the workloads and what each metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// setupRepeats is how many times a trace-0 run sets the workload up;
// setup_s is the median, and the last set-up is the one measured.
const setupRepeats = 3

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		bin      = flag.String("server", "", "ufpserve binary to start")
		out      = flag.String("out", ".bench_build/perfbench", "directory for the server log and span files")
		name     = flag.String("workload", "", "workload name (see BENCHMARK.json)")
		seed     = flag.Uint64("seed", 1, "workload seed: every input is derived from it")
		seconds  = flag.Int("seconds", 10, "measured seconds per pass")
		traceArg = flag.Int("trace", 0, "1 = report per-layer metrics from a traced pass")
	)
	flag.Parse()
	if *bin == "" {
		return errors.New("-server is required")
	}
	if *seconds < 1 || (*traceArg != 0 && *traceArg != 1) {
		return errors.New("--seconds must be >= 1 and --trace 0 or 1")
	}
	def, err := readSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	w, err := newWorkload(*name, *seed)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	e := &env{bin: *bin, out: *out, window: time.Duration(*seconds) * time.Second}
	stamp := environment(*bin, *name, *seed, *seconds, *traceArg, w.flags())
	steal0, total0 := cpuTicks()
	var values map[string]float64
	var tally *pass
	if *traceArg == 0 {
		values, tally, err = measureEndToEnd(e, w)
	} else {
		values, tally, err = measureLayers(e, w, filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.jsonl", *name, *seed)))
	}
	if err != nil {
		return err
	}
	names := def.EndToEnd
	if *traceArg == 1 {
		names = def.PerLayer
	}
	metrics, unmeasured, err := pick(names, values)
	if err != nil {
		return err
	}
	if *traceArg == 0 && len(unmeasured) > 0 {
		return fmt.Errorf("end-to-end metrics not measured: %v", unmeasured)
	}
	stamp["unmeasured"] = unmeasured
	stamp["windowStealPct"] = tally.stealPct
	// CPU time the hypervisor took from this machine during the run: a
	// result measured under heavy steal is not comparable to one without.
	if steal1, total1 := cpuTicks(); total1 > total0 {
		stamp["hostStealPct"] = 100 * (steal1 - steal0) / (total1 - total0)
	}
	if err := json.NewEncoder(os.Stdout).Encode(map[string]any{"environment": stamp}); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(map[string]any{
		"correct":   true,
		"attempted": tally.attempted,
		"failed":    tally.failed,
		"metrics":   metrics,
	})
}

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type spec struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the benchmark definition: %w", err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &s, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pick selects the named metrics from values. A per-layer metric the
// workload did not measure (it does not exercise that layer, or has too
// few samples for that percentile) reads 0 and is listed as unmeasured.
// A computed value BENCHMARK.json does not name is a bug in this
// program.
func pick(defs []metricDef, values map[string]float64) (map[string]metricValue, []string, error) {
	out := map[string]metricValue{}
	unmeasured := []string{}
	known := map[string]bool{}
	for _, d := range defs {
		known[d.Name] = true
		v, ok := values[d.Name]
		if !ok {
			unmeasured = append(unmeasured, d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	var extra []string
	for name := range values {
		if !known[name] {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, nil, fmt.Errorf("metrics missing from BENCHMARK.json: %v", extra)
	}
	return out, unmeasured, nil
}

// newWorkload maps a workload name to its implementation.
func newWorkload(name string, seed uint64) (workload, error) {
	switch name {
	case "admit-stream-waxman1k":
		return &stream{seed: seed}, nil
	case "tenant-fleet-fattree":
		return &fleet{seed: seed}, nil
	case "mechanism-fattree":
		return &mech{seed: seed}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
