// Command perfbench is the repository's benchmark. One invocation runs
// one workload for a fixed time, checks every output it produced, and
// prints each metric by name and unit; its last stdout line is a JSON
// object {correct, attempted, failed, metrics}. With -trace 0 the
// metrics are the end-to-end ones (tracing off); with -trace 1 the run
// repeats the workload with the trace recorder on and reports the
// per-layer breakdown instead.
//
//	perfbench --workload pagerank-tcp --seed 1 --seconds 30 --trace 0
//
// Workloads, metrics and their meaning are documented in README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// runConfig is what every workload receives.
type runConfig struct {
	// seed drives every generated input: the graphs.
	seed int64
	// measure is the length of one measured phase.
	measure time.Duration
	trace   bool
}

// metric is one named, unit-carrying value.
type metric struct {
	name  string
	value float64
	unit  string
}

// outcome is a workload run's result.
type outcome struct {
	attempted, failed int
	metrics           []metric
	notes             []string
}

func (o *outcome) add(name string, value float64, unit string) {
	o.metrics = append(o.metrics, metric{name, value, unit})
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// workloads maps each workload name declared in BENCHMARK.json to its
// runner.
var workloads = map[string]func(runConfig) (*outcome, error){
	"pagerank-tcp":     func(cfg runConfig) (*outcome, error) { return runBatch(prTCPWorkload, cfg) },
	"pagerank-mrchain": func(cfg runConfig) (*outcome, error) { return runBatch(prChainWorkload, cfg) },
	"serve-mixed":      runServe,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (see README.md)")
		seed    = flag.Int64("seed", 1, "input seed: the generated graphs")
		seconds = flag.Int("seconds", 30, "length of the measured phase")
		traced  = flag.Int("trace", 0, "1 = report the per-layer metrics of a traced run")
	)
	flag.Parse()
	if *seconds <= 0 {
		fail(fmt.Errorf("--seconds must be positive"))
	}
	cfg := runConfig{seed: *seed, measure: time.Duration(*seconds) * time.Second, trace: *traced == 1}

	run, ok := workloads[*name]
	if !ok {
		fail(fmt.Errorf("unknown workload %q", *name))
	}
	out, err := run(cfg)
	if err != nil {
		fail(err)
	}

	fmt.Printf("# workload=%s seed=%d seconds=%d trace=%d %s\n", *name, *seed, *seconds, *traced, boxInfo())
	for _, n := range out.notes {
		fmt.Println("#", n)
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]jsonMetric, len(out.metrics))
	for _, m := range out.metrics {
		fmt.Printf("%-34s %14.6g %s\n", m.name, m.value, m.unit)
		ms[m.name] = jsonMetric{m.value, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{out.failed == 0 && out.attempted > 0, out.attempted, out.failed, ms})
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
