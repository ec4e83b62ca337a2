// Command loadbench is the repository benchmark: it drives the compute
// library from outside, the way its users do, and prints end-to-end and
// per-layer metrics as one JSON line.
//
//	loadbench --workload lenet-serve|tiny-jobs|sgemm-float --seed N --seconds S --trace 0|1
//
// Three workloads stand for three kinds of user (see NOTES.md; the first
// two are the gated ones in BENCHMARK.json):
//
//   - lenet-serve: an operator serving int8 LeNet inference through
//     nn.Service over a 2-device sched.Queue, open-loop Poisson arrivals;
//   - tiny-jobs: an operator serving tiny int32 kernel jobs through a
//     2-device sched.Queue, open-loop Poisson arrivals;
//   - sgemm-float: an app calling a float32 sgemm kernel synchronously on
//     one device, closed loop (the paper's own use).
//
// With --trace 0 the last output line carries the end-to-end metrics; with
// --trace 1 the run additionally records spans around the benchmark's calls
// into each layer, writes them to --outdir, and the last line carries the
// per-layer metrics. Every output is checked against a reference; a
// mismatch counts as a failed op and makes the run incorrect.
//
// Run it through run.sh from the module root, which builds it first.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// envPrefix marks the library's environment knobs (GLESCOMPUTE_NO_FUSION,
// _NO_VEC4, _RASTER_WORKERS, _COMPILE_CACHE, _FAULT_SEED, _LOAD_SEED).
// Each silently changes what is measured, so the benchmark refuses to run
// with any of them set.
const envPrefix = "GLESCOMPUTE_"

// options are the command-line arguments every workload receives.
type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
	outdir  string
}

// metric is one named figure with its unit.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// outcome is what a workload run hands back to main.
type outcome struct {
	attempted, failed int
	// wrong counts ops whose output differed from the reference (they are
	// included in failed); a run with any is incorrect.
	wrong int
	// exactMismatch names a modeled figure that did not repeat exactly
	// across ops; it makes the run incorrect.
	exactMismatch string
	// backlog, when non-empty, says why the open loop fell behind its
	// offered rate: the run then has no valid latency figure.
	backlog string
	metrics []metric
	// report holds extra human-readable lines (workload-specific figures,
	// tracing overhead, host facts) printed before the result line.
	report []string
}

func (o *outcome) add(name string, v float64, unit string) {
	o.metrics = append(o.metrics, metric{name, v, unit})
}

func (o *outcome) note(format string, args ...interface{}) {
	o.report = append(o.report, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its run.
var workloads = map[string]func(opts options) (*outcome, error){
	"lenet-serve": runLenet,
	"tiny-jobs":   runTiny,
	"sgemm-float": runSgemm,
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("loadbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed for the generated inputs and arrival schedule")
	seconds := fs.Int("seconds", 10, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1 records spans and prints per-layer metrics")
	outdir := fs.String("outdir", ".bench_build", "directory for the span file of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if v := pinnedEnv(os.Environ()); v != "" {
		fmt.Fprintf(stderr, "loadbench: %s is set; it changes what is measured, unset it\n", v)
		return 2
	}
	run, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "loadbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(stderr, "loadbench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	opts := options{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, outdir: *outdir}
	fmt.Fprintf(stdout, "loadbench %s seed=%d seconds=%d trace=%d nproc=%d GOMAXPROCS=%d go=%s\n",
		*name, *seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	out, err := run(opts)
	if err != nil {
		fmt.Fprintf(stderr, "loadbench: %s: %v\n", *name, err)
		return 1
	}
	for _, line := range out.report {
		fmt.Fprintln(stdout, line)
	}
	if out.exactMismatch != "" {
		fmt.Fprintf(stdout, "INCORRECT: a modeled figure did not repeat: %s\n", out.exactMismatch)
	}
	if out.wrong > 0 {
		fmt.Fprintf(stdout, "INCORRECT: %d ops returned a wrong output\n", out.wrong)
	}
	if out.backlog != "" {
		fmt.Fprintf(stderr, "loadbench: %s: backlogged, no latency figure: %s\n", *name, out.backlog)
		return 3
	}
	if err := writeResult(stdout, out); err != nil {
		fmt.Fprintf(stderr, "loadbench: %v\n", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// pinnedEnv returns the first library environment variable set in env,
// or "".
func pinnedEnv(env []string) string {
	for _, kv := range env {
		if strings.HasPrefix(kv, envPrefix) {
			name, _, _ := strings.Cut(kv, "=")
			return name
		}
	}
	return ""
}

// writeResult prints the result line: correct, attempted, failed and the
// metrics, each with its unit.
func writeResult(w io.Writer, out *outcome) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(out.metrics))
	for _, m := range out.metrics {
		if _, dup := ms[m.Name]; dup {
			return fmt.Errorf("metric %s reported twice", m.Name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", m.Name, m.Value)
		}
		ms[m.Name] = value{m.Value, m.Unit}
	}
	if out.attempted < 1 {
		return errors.New("no op was attempted")
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.wrong == 0 && out.exactMismatch == "", out.attempted, out.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
