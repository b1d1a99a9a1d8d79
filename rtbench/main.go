// Command rtbench is the repository's real-workload benchmark. Each
// workload drives the system through its public entry points — the attack
// trainer, the challenge-sweep scorer, and the gateway's HTTP API in front
// of a two-node fabric — and prints one JSON result line. See README.md
// for what each workload measures and why.
//
// Usage (from the repository root, through the build wrapper):
//
//	bash rtbench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// a separately traced run carries the per-layer metrics.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// options are the benchmark's command-line inputs.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceDir string
}

// report is what one workload measured in one run.
type report struct {
	attempted, failed int
	// setup holds each set-up's wall time; setup_s is their median.
	setup []float64
	// samples are per-operation latencies in ms (p50_ms, tail_ms).
	samples []float64
	// units of work completed within window (rate_per_s).
	units  float64
	window time.Duration
	// peakMB, when set, is the peak memory at the end of the measured
	// window, taken before the benchmark's own output checks ran.
	peakMB float64
	// layers are the traced run's per-layer metrics.
	layers map[string]float64
	// notes go into the header line.
	notes map[string]any
	// invalid, when set, says why the run did not carry its intended load.
	invalid string
}

func newReport() *report {
	return &report{layers: map[string]float64{}, notes: map[string]any{}}
}

// workload is one benchmark scenario; BENCHMARK.json says why each exists.
type workload struct {
	name string
	run  func(o options, r *report) error
}

// metricDef describes a metric as BENCHMARK.json declares it.
type metricDef struct {
	name, unit string
}

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"mem_peak_mb", "MB"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"rate_per_s", "1/s"},
}

// perLayer lists every per-layer metric. A workload that does not
// exercise a layer reports 0 for it.
var perLayer = []metricDef{
	// attack_train, ms per training iteration.
	{"attack.traced_iter_ms", "ms"},
	{"yolo.fwd_ms.n3", "ms"},
	{"yolo.attack_loss_ms", "ms"},
	{"yolo.bwd_ms.n3", "ms"},
	{"eot.fwd_ms", "ms"},
	{"eot.bwd_ms", "ms"},
	{"scene.train_render_ms", "ms"},
	{"scene.train_render_bwd_ms", "ms"},
	{"imaging.decal_composite_ms", "ms"},
	{"imaging.decal_composite_bwd_ms", "ms"},
	{"gan.g_ms", "ms"},
	{"gan.d_ms", "ms"},
	{"optim.adam_ms", "ms"},
	{"attack.verify_ms", "ms"},
	{"attack.unattributed_ms", "ms"},
	// eval_sweep, ms per video frame.
	{"eval.traced_frame_ms", "ms"},
	{"eval.forward_ms", "ms"},
	{"eval.decode_ms", "ms"},
	{"scene.render_video_ms", "ms"},
	{"attack.deploy_ms", "ms"},
	{"physical.capture_ms", "ms"},
	{"yolo.dets_per_frame", "count"},
	{"eval.unattributed_ms", "ms"},
	// serve_fleet, ms per fresh request unless a unit says otherwise.
	{"fleet.traced_ms", "ms"},
	{"fleet.client_wait_ms", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"eval.job_ms", "ms"},
	{"fabric.overhead_ms", "ms"},
	{"serve.hit_p50_ms", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.rejected", "count"},
	{"fabric.bytes_per_req", "bytes"},
	{"fabric.node_share_max", "ratio"},
	{"fabric.retries", "count"},
}

func workloads() []workload {
	return []workload{
		{"attack_train", runAttack},
		{"eval_sweep", runEvalSweep},
		{"serve_fleet", runServeFleet},
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "rtbench:", err)
		return 2
	}
	if o.workload == "all" {
		if err := runAll(o, stdout); err != nil {
			fmt.Fprintln(stderr, "rtbench:", err)
			return 1
		}
		return 0
	}
	var w workload
	for _, c := range workloads() {
		if c.name == o.workload {
			w = c
		}
	}
	if w.run == nil {
		fmt.Fprintf(stderr, "rtbench: unknown workload %q\n", o.workload)
		return 2
	}
	r := newReport()
	stealBefore, totalBefore := cpuSteal()
	if err := w.run(o, r); err != nil {
		fmt.Fprintf(stderr, "rtbench: %s: %v\n", w.name, err)
		return 1
	}
	if r.attempted < 1 {
		fmt.Fprintf(stderr, "rtbench: %s attempted no operation\n", w.name)
		return 1
	}
	stealAfter, totalAfter := cpuSteal()
	if totalAfter > totalBefore {
		// CPU time the hypervisor gave to other guests, as a share of all
		// CPU time while the run lasted: a run with a high share ran on a
		// slower machine than its neighbours.
		r.notes["cpu_steal_pct"] = 100 * (stealAfter - stealBefore) / (totalAfter - totalBefore)
	}
	hdr, res := assemble(o, r)
	if err := printJSON(stdout, map[string]any{"header": hdr}); err != nil {
		return 1
	}
	if err := printJSON(stdout, res); err != nil {
		return 1
	}
	return 0
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("rtbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run, or all")
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are made from")
	fs.Float64Var(&o.seconds, "seconds", 15, "how long to measure")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&o.traceDir, "trace-dir", ".bench_build/traces", "where a traced run writes its spans")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if o.workload == "" {
		return o, errors.New("--workload is required")
	}
	if o.seconds <= 0 {
		return o, errors.New("--seconds must be positive")
	}
	if trace != 0 && trace != 1 {
		return o, errors.New("--trace must be 0 or 1")
	}
	o.trace = trace == 1
	return o, nil
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// assemble turns a workload report into the header and the result line.
func assemble(o options, r *report) (map[string]any, result) {
	hdr := map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"samples":    len(r.samples),
		"setups":     len(r.setup),
	}
	for k, v := range r.notes {
		hdr[k] = v
	}
	res := result{Correct: r.failed == 0 && r.invalid == "", Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]metric{}}
	if r.invalid != "" {
		hdr["invalid"] = r.invalid
	}
	if o.trace {
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{Value: r.layers[m.name], Unit: m.unit}
		}
		return hdr, res
	}
	tv, pct, ok := tail(r.samples)
	if !ok {
		res.Correct = false
		hdr["invalid"] = fmt.Sprintf("%d latency samples: too few for a tail with %d beyond", len(r.samples), minBeyond)
	}
	hdr["tail_percentile"] = pct
	hdr["tail_beyond"] = minBeyond
	hdr["mean_ms"] = mean(r.samples)
	rate := 0.0
	if r.window > 0 {
		rate = r.units / r.window.Seconds()
	}
	if r.peakMB == 0 {
		r.peakMB = peakRSSMB()
	}
	values := map[string]float64{
		"setup_s":     median(r.setup),
		"mem_peak_mb": r.peakMB,
		"p50_ms":      median(r.samples),
		"tail_ms":     tv,
		"rate_per_s":  rate,
	}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metric{Value: values[m.name], Unit: m.unit}
	}
	return hdr, res
}

func printJSON(w io.Writer, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// cpuModel reads the processor name from /proc/cpuinfo ("" elsewhere).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// cpuSteal returns the machine's stolen and total CPU time so far, in
// clock ticks, from /proc/stat (zeros elsewhere).
func cpuSteal() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user … steal; guest time is already inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB. Where
// /proc is unavailable it falls back to the memory the Go runtime holds.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// runAll runs every workload in a child process of its own, so each
// reports its own peak memory, and prints every metric by name and unit.
func runAll(o options, stdout io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%-14s %-32s %14s %s\n", "workload", "metric", "value", "unit")
	for _, w := range workloads() {
		args := []string{"--workload", w.name, "--seed", strconv.FormatInt(o.seed, 10),
			"--seconds", strconv.FormatFloat(o.seconds, 'f', -1, 64), "--trace", "0"}
		if o.trace {
			args[len(args)-1] = "1"
		}
		cmd := exec.Command(self, append(args, "--trace-dir", o.traceDir)...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("%s: result line: %w", w.name, err)
		}
		names := endToEnd
		if o.trace {
			names = perLayer
		}
		for _, m := range names {
			v := res.Metrics[m.name]
			fmt.Fprintf(stdout, "%-14s %-32s %14.4f %s\n", w.name, m.name, v.Value, v.Unit)
		}
		fmt.Fprintf(stdout, "%-14s %-32s %14s correct=%v\n", w.name, "failed/attempted",
			fmt.Sprintf("%d/%d", res.Failed, res.Attempted), res.Correct)
	}
	return nil
}
