// Command perfbench is the repository benchmark: three workloads that
// between them exercise every layer of the test generator, each measured
// end to end (trace 0) or layer by layer (trace 1). See README.md for the
// workloads, the metric map and how steadiness was established.
//
//	perfbench --workload campaign-exec --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: {"correct",
// "attempted", "failed", "metrics"}. Every line before it is for humans:
// machine facts, every end-to-end metric by name and unit (including the
// workload-specific ones), and any wrong output. The exit status is
// non-zero when any operation failed or produced a wrong output.
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
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// tigad is the daemon binary serve-mixed starts.
	tigad string
	// spans is where a traced run writes its spans (empty: not written).
	spans string
	// log receives the human-readable lines.
	log io.Writer
}

// metric is one reported number. Gated metrics are the ones BENCHMARK.json
// names (end_to_end in an untraced run, per_layer in a traced one); the
// others are printed for humans only.
type metric struct {
	name  string
	unit  string
	value float64
	gated bool
	note  string // distribution detail for the human line
}

// outcome is what a workload run reports.
type outcome struct {
	attempted int
	failed    int
	problems  []string
	metrics   []metric
}

// fail records one failed or wrong operation; the first few are printed.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) add(name, unit string, v float64, gated bool) {
	o.metrics = append(o.metrics, metric{name: name, unit: unit, value: v, gated: gated})
}

func (o *outcome) addNote(name, unit string, v float64, gated bool, note string) {
	o.metrics = append(o.metrics, metric{name: name, unit: unit, value: v, gated: gated, note: note})
}

// workload runs one traffic shape under a config.
type workload struct {
	why string
	run func(cfg *config) (*outcome, error)
}

var workloads = map[string]workload{
	"campaign-exec": {
		why: "smartlight edge campaign, exhaustive mutants: test execution dominates",
		run: func(cfg *config) (*outcome, error) { return runCampaign(&campaignExec, cfg) },
	},
	"campaign-solve": {
		why: "LEP n=4 edge campaign, exhaustive mutants: planning and mutant analysis dominate",
		run: func(cfg *config) (*outcome, error) { return runCampaign(&campaignSolve, cfg) },
	},
	"serve-mixed": {
		why: "tigad under 2 closed-loop connections: ~90% inline runs on hot purposes, ~10% cold synthesize",
		run: func(cfg *config) (*outcome, error) { return runServe(&serveMixed, cfg) },
	},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: campaign-exec, campaign-solve or serve-mixed")
	seed := fs.Int64("seed", 1, "workload seed (inputs are a function of it)")
	seconds := fs.Float64("seconds", 20, "measurement window in seconds")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	tigad := fs.String("tigad", filepath.Join(".bench_build", "tigad"), "tigad binary for serve-mixed")
	spans := fs.String("spans", "", "file a traced run writes its spans to (default: .bench_build/spans-<workload>-<seed>.jsonl)")
	record := fs.Bool("record-pool", false, "solve every cold-synthesize pool purpose and print the expectations file (testdata/cold_pool.txt)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *record {
		if err := recordPool(stdout); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	}
	cfg := &config{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		tigad:   *tigad,
		spans:   *spans,
		log:     stdout,
	}
	if cfg.trace && cfg.spans == "" {
		cfg.spans = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", *name, *seed))
	}

	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%g trace=%d\n", *name, *seed, *seconds, *trace)
	fmt.Fprintf(stdout, "machine: nproc=%d GOMAXPROCS=%d go=%s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(stdout, "workload: %s\n", w.why)

	out, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	return report(out, stdout)
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// report prints the human lines and the closing JSON result, returning
// the exit status.
func report(out *outcome, stdout io.Writer) int {
	for _, p := range out.problems {
		fmt.Fprintf(stdout, "WRONG: %s\n", p)
	}
	ratio := 0.0
	if out.attempted > 0 {
		ratio = float64(out.failed) / float64(out.attempted)
	}
	fmt.Fprintf(stdout, "metric fail_ratio = %s ratio (%d failed of %d attempted)\n", fmtValue(ratio), out.failed, out.attempted)
	metrics := map[string]any{}
	for _, m := range out.metrics {
		line := fmt.Sprintf("metric %s = %s %s", m.name, fmtValue(m.value), m.unit)
		if m.note != "" {
			line += " (" + m.note + ")"
		}
		fmt.Fprintln(stdout, line)
		if m.gated {
			metrics[m.name] = map[string]any{"value": jsonNumber(m.value), "unit": m.unit}
		}
	}
	correct := out.failed == 0 && out.attempted > 0
	res := map[string]any{
		"correct":   correct,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   metrics,
	}
	data, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stdout, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(data))
	if !correct {
		return 1
	}
	return 0
}

func fmtValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// jsonNumber keeps every digit of a measurement; a non-finite value (a
// ratio over nothing) is reported as 0 rather than breaking the JSON.
func jsonNumber(v float64) json.Number {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	return json.Number(strconv.FormatFloat(v, 'g', -1, 64))
}

// cpuTime is the user plus system CPU time this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS resets a process's resident-set high-water mark to its
// current resident set (Linux clear_refs); pid 0 means this process.
func resetPeakRSS(pid int) error {
	path := "/proc/self/clear_refs"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/clear_refs", pid)
	}
	return os.WriteFile(path, []byte("5"), 0)
}

// peakRSSMB reads a process's resident-set high-water mark (VmHWM) from
// /proc; pid 0 means this process.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// procCPU is the CPU time process pid's threads have run, from the
// scheduler's per-thread accounting in /proc/<pid>/task/*/schedstat.
func procCPU(pid int) (time.Duration, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil {
		return 0, err
	}
	if len(tasks) == 0 {
		return 0, fmt.Errorf("no threads of process %d in /proc", pid)
	}
	var total time.Duration
	for _, t := range tasks {
		data, err := os.ReadFile(t)
		if err != nil {
			continue // the thread has exited
		}
		f := strings.Fields(string(data))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty %s", t)
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing %s: %w", t, err)
		}
		total += time.Duration(ns)
	}
	return total, nil
}
