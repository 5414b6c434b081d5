// Command bench is the repository's benchmark: four closed-loop workloads
// against the stock engine on every core, end-to-end metrics from a
// tracing-off phase, and per-layer metrics taken from outside — spans around
// the driver's own calls, the same transactions replayed at each layer's
// public entry, and the engine's /metrics text. See README.md.
//
//	go run -C bench .                       # the whole suite, one process per workload
//	go run -C bench . -repeat 2             # twice, and compare the two
//	go run -C bench . -compare A.json B.json
//	go run -C bench . -workload tpcc -seed 1 -seconds 20 -trace 0
//
// The last form is what BENCHMARK.json's command runs, through run.sh: one
// workload in this process, its result as one JSON object on the last line
// of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// warmup is how long every workload runs before anything is measured.
const warmup = 2 * time.Second

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload in this process (tpcc, readmostly, hotrow, dss_surge)")
		seed    = flag.Int64("seed", 1, "input generator seed")
		seconds = flag.Float64("seconds", 20, "measured seconds per run: the timed phase, or with -trace 1 the reference, traced and replay phases")
		trace   = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
		outDir  = flag.String("out", "out", "directory for result and trace files")
		compare = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
		repeat  = flag.Int("repeat", 1, "run the suite this many times and compare consecutive runs")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(2, "usage: -compare A.json B.json")
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	}
	if raceEnabled {
		fatal(2, "refusing to measure a -race build")
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		fatal(2, fmt.Sprintf("refusing to measure: GOMAXPROCS %d exceeds %d cores", runtime.GOMAXPROCS(0), runtime.NumCPU()))
	}
	if *name == "" {
		os.Exit(runSuite(*seed, *seconds, *outDir, *repeat))
	}
	w := workloadByName(*name)
	if w == nil {
		fatal(2, "unknown workload "+*name)
	}
	if *trace != 0 && *trace != 1 {
		fatal(2, "-trace is 0 or 1")
	}
	res, err := runWorkload(options{
		w: w, seed: *seed, warmup: warmup, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1,
		setups: 5, outDir: *outDir, nproc: runtime.NumCPU(),
	})
	if err != nil {
		fatal(1, err.Error())
	}
	printResult(os.Stdout, res)
	if err := writeJSON(resultPath(*outDir, w.name, *trace == 1), res); err != nil {
		fatal(1, err.Error())
	}
	line, err := contractLine(res)
	if err != nil {
		fatal(1, err.Error())
	}
	fmt.Println(line)
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(code int, msg string) {
	fmt.Fprintln(os.Stderr, "bench:", msg)
	os.Exit(code)
}

func resultPath(dir, workload string, trace bool) string {
	t := 0
	if trace {
		t = 1
	}
	return filepath.Join(dir, fmt.Sprintf("result-%s-trace%d.json", workload, t))
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printResult prints every metric by name with its unit and sample count,
// the checks, and the budget table.
func printResult(out *os.File, res *result) {
	fmt.Fprintf(out, "== %s: %d sessions, seed %d, timed %.1fs, traced %.1fs\n",
		res.Workload, res.Sessions, res.Seed, res.TimedS, res.TracedS)
	for _, n := range res.names() {
		m := res.Metrics[n]
		extra := ""
		if m.Q1 != nil {
			extra = fmt.Sprintf("  [q1 %.6g, q3 %.6g]", *m.Q1, *m.Q3)
		}
		if m.Percentile != 0 {
			extra += fmt.Sprintf("  (p%g: too few samples)", m.Percentile*100)
		}
		fmt.Fprintf(out, "%-40s %14s %-6s n=%d%s\n", n, fmtNum(numOf(m.Value)), m.Unit, m.N, extra)
	}
	for _, b := range res.Budgets {
		fmt.Fprintf(out, "-- budget, %d session(s): measured %s ns/txn/session\n", b.Sessions, fmtNum(numOf(b.Measured)))
		for _, row := range b.Rows {
			note := ""
			if row.Inner {
				note = "  (inside lockmgr, not summed)"
			}
			fmt.Fprintf(out, "   %-20s %12s ns%s\n", row.Row, fmtNum(numOf(row.Ns)), note)
		}
		fmt.Fprintf(out, "   %-20s %12s\n", "residual_frac", fmtNum(numOf(b.Residual)))
	}
	for _, c := range res.Checks {
		verdict := "ok  "
		if !c.OK {
			verdict = "FAIL"
		}
		fmt.Fprintf(out, "check %s %s %s\n", verdict, c.Name, c.Detail)
	}
	fmt.Fprintf(out, "attempted %d, failed %d, correct %v\n", res.Attempted, res.Failed, res.Correct)
}

// benchmarkSpec is BENCHMARK.json, the contract the driver holds this
// command to.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec finds BENCHMARK.json at the root of the checkout: beside this
// directory, which is where `go run -C bench` leaves the process.
func loadSpec() (*benchmarkSpec, error) {
	var last error
	for _, p := range []string{"../BENCHMARK.json", "BENCHMARK.json"} {
		b, err := os.ReadFile(p)
		if err != nil {
			last = err
			continue
		}
		spec := &benchmarkSpec{}
		if err := json.Unmarshal(b, spec); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return spec, nil
	}
	return nil, last
}

// notMeasured stands in the contract line for a metric that is null here:
// not exercised by this workload, or computed from a family the engine no
// longer exports. Every real value is non-negative. The result file keeps
// the null.
const notMeasured = -1

// contractLine is the result in the form BENCHMARK.json's reader expects:
// the end-to-end metrics of a tracing-off run, or the per-layer metrics of
// a traced one.
func contractLine(res *result) (string, error) {
	spec, err := loadSpec()
	if err != nil {
		return "", err
	}
	list := spec.EndToEnd
	if res.Trace {
		list = spec.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, sm := range list {
		v := value{Value: notMeasured, Unit: sm.Unit}
		if m, ok := res.Metrics[sm.Name]; ok && m.Value != nil {
			v.Value = *m.Value
		}
		metrics[sm.Name] = v
	}
	attempted := res.Attempted
	if attempted < 1 {
		attempted = 1
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, attempted, res.Failed, metrics})
	return string(b), err
}

// suiteRun is the result file of one pass over every workload.
type suiteRun struct {
	Commit     string             `json:"commit"`
	Go         string             `json:"go"`
	Nproc      int                `json:"nproc"`
	Gomaxprocs int                `json:"gomaxprocs"`
	Seed       int64              `json:"seed"`
	WarmupS    float64            `json:"warmup_s"`
	Seconds    float64            `json:"seconds"`
	Workloads  map[string]*result `json:"workloads"`
}

func commitID() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runSuite runs every workload `repeat` times — each run of a workload in a
// process of its own, tracing-off and traced — writes one result file per
// pass and compares consecutive passes. The passes go workload by workload,
// side by side: a shared box changes speed every few minutes, and two runs
// that are to be compared should not have a whole suite between them. A
// workload whose process crashes is reported failed with everything it
// attempted counted failed.
func runSuite(seed int64, seconds float64, outDir string, repeat int) int {
	self, err := os.Executable()
	if err != nil {
		fatal(1, err.Error())
	}
	passes := make([]*suiteRun, repeat)
	for i := range passes {
		passes[i] = &suiteRun{
			Commit: commitID(), Go: runtime.Version(), Nproc: runtime.NumCPU(), Gomaxprocs: runtime.GOMAXPROCS(0),
			Seed: seed, WarmupS: warmup.Seconds(), Seconds: seconds, Workloads: map[string]*result{},
		}
	}
	code := 0
	for _, w := range workloads {
		for _, sr := range passes {
			sr.Workloads[w.name] = &result{Workload: w.name, Sessions: w.sessions(runtime.NumCPU()), Seed: seed, Correct: true, Metrics: map[string]metric{}}
		}
		for _, trace := range []int{0, 1} {
			for _, sr := range passes {
				merged := sr.Workloads[w.name]
				cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
					"-trace", fmt.Sprint(trace), "-out", outDir)
				cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
				file := resultPath(outDir, w.name, trace == 1)
				os.Remove(file) // a crash must not be answered from an older run's file
				runErr := cmd.Run()
				var part result
				if b, err := os.ReadFile(file); err == nil {
					runErr = json.Unmarshal(b, &part)
				}
				if runErr != nil {
					// Crashed before writing a result: no retry, and all
					// it attempted counts as failed.
					merged.check(fmt.Sprintf("process (trace %d)", trace), false, runErr.Error())
					merged.Attempted++
					merged.Failed = merged.Attempted
					continue
				}
				merged.merge(&part)
			}
		}
		for _, sr := range passes {
			if !sr.Workloads[w.name].Correct {
				code = 1
			}
		}
	}
	var files []string
	for i, sr := range passes {
		path := filepath.Join(outDir, fmt.Sprintf("run-%d.json", i+1))
		if err := writeJSON(path, sr); err != nil {
			fatal(1, err.Error())
		}
		printShapes(sr)
		fmt.Println("wrote", path)
		files = append(files, path)
	}
	for i := 1; i < len(files); i++ {
		if c := compareFiles(files[i-1], files[i]); c != 0 {
			code = c
		}
	}
	return code
}

// shapes are the properties that make each workload load its own layers and
// bypass the others. They are reported, not enforced: a change that moves
// one has changed what the workload measures, which may be its point.
var shapes = []struct {
	workload, metric string
	atLeast          bool
	limit            float64
}{
	{"tpcc", "lockmgr.waits_per_txn", false, 0.05},
	{"tpcc", "lockmgr.latched_admit_frac", true, 0.4},
	{"tpcc", "lockmgr.token_admit_frac", false, 0},
	{"readmostly", "lockmgr.token_admit_frac", true, 0.25},
	{"readmostly", "lockmgr.waits_per_txn", false, 0.05},
	{"hotrow", "lockmgr.waits_per_txn", true, 0.9},
	{"hotrow", "lockmgr.token_admit_frac", false, 0},
	{"dss_surge", "stmm.sync_growths", true, 1},
	{"dss_surge", "lockmgr.token_admit_frac", false, 0},
}

func printShapes(sr *suiteRun) {
	verdict := func(ok bool) string {
		if ok {
			return "ok "
		}
		return "OFF"
	}
	for _, sh := range shapes {
		res := sr.Workloads[sh.workload]
		if res == nil {
			continue
		}
		v := res.get(sh.metric)
		op, ok := "<=", v.ok && v.v <= sh.limit
		if sh.atLeast {
			op, ok = ">=", v.ok && v.v >= sh.limit
		}
		fmt.Printf("shape %s %-11s %-28s %s %s %g\n", verdict(ok), sh.workload, sh.metric, fmtNum(v), op, sh.limit)
	}
	// Lock memory moves only where something scans: it grows with the
	// connected applications (minLockMemory) and with nothing else.
	for _, w := range workloads {
		res := sr.Workloads[w.name]
		if res == nil {
			continue
		}
		ratio := res.get("memblock.pages_peak").div(res.get("memblock.pages_start"))
		op, ok := "<=", ratio.ok && ratio.v <= 4
		if w.name == "dss_surge" {
			op, ok = ">=", ratio.ok && ratio.v >= 50
		}
		limit := map[string]float64{"<=": 4, ">=": 50}[op]
		fmt.Printf("shape %s %-11s %-28s %s %s %g\n", verdict(ok), w.name, "memblock.pages_peak/start", fmtNum(ratio), op, limit)
	}
}

// merge folds one process's result into the workload's: end-to-end metrics
// come from the tracing-off process, everything else from the traced one.
func (res *result) merge(part *result) {
	for n, m := range part.Metrics {
		if _, have := res.Metrics[n]; !have {
			res.Metrics[n] = m
		}
	}
	if part.Trace {
		res.TracedS, res.Budgets = part.TracedS, part.Budgets
	} else {
		res.TimedS, res.WarmupS = part.TimedS, part.WarmupS
	}
	res.Attempted += part.Attempted
	res.Failed += part.Failed
	res.Checks = append(res.Checks, part.Checks...)
	res.Correct = res.Correct && part.Correct
}
