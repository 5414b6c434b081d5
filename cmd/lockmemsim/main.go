// Command lockmemsim regenerates the paper's tables and figures.
//
// Usage:
//
//	lockmemsim -list
//	lockmemsim -experiment fig9
//	lockmemsim -experiment all -csv out/ -chart
//
// Each experiment prints a findings table (paper claim vs measured value).
// With -csv the captured time series are written as CSV files; with -chart
// the headline series are rendered as ASCII charts.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/obs"
)

func main() {
	var (
		expID    = flag.String("experiment", "all", "experiment id (see -list) or \"all\"")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		csvDir   = flag.String("csv", "", "directory to write per-experiment CSV series")
		chart    = flag.Bool("chart", false, "render headline series as ASCII charts")
		md       = flag.Bool("markdown", false, "emit findings as markdown tables")
		httpAddr = flag.String("http", "", "serve /metrics, /debug/* and pprof for the live experiment engine")
		profile  = flag.Bool("profile", false, "print each experiment's contention-profiler report (top hot locks, wait chains, latch profile)")
	)
	flag.Parse()

	if *httpAddr != "" {
		// Experiments open one engine each; LiveHandlers always tracks the
		// most recently opened one, so the server follows along.
		bound, err := obs.Serve(*httpAddr, obs.NewMux(engine.LiveHandlers()))
		if err != nil {
			fmt.Fprintf(os.Stderr, "lockmemsim: -http %s: %v\n", *httpAddr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "lockmemsim: serving http://%s/metrics\n", bound)
	}

	reg := experiments.Registry()
	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}

	var ids []string
	if *expID == "all" {
		ids = experiments.IDs()
	} else {
		if reg[*expID] == nil {
			fmt.Fprintf(os.Stderr, "lockmemsim: unknown experiment %q (use -list)\n", *expID)
			os.Exit(2)
		}
		ids = []string{*expID}
	}

	failed := 0
	for _, id := range ids {
		outcome := reg[id]()
		if *md {
			fmt.Println(outcome.Markdown())
		} else {
			fmt.Println(outcome)
		}
		if !outcome.Passed() {
			failed++
		}
		if *profile {
			// The experiment's engine is the most recently opened one.
			if db := engine.Live(); db != nil {
				fmt.Print(db.Locks().ContentionReport(10))
			}
		}
		if outcome.Result != nil {
			if *csvDir != "" {
				if err := os.MkdirAll(*csvDir, 0o755); err != nil {
					fmt.Fprintf(os.Stderr, "lockmemsim: %v\n", err)
					os.Exit(1)
				}
				path := filepath.Join(*csvDir, id+".csv")
				if err := os.WriteFile(path, []byte(outcome.Result.Series.CSV()), 0o644); err != nil {
					fmt.Fprintf(os.Stderr, "lockmemsim: %v\n", err)
					os.Exit(1)
				}
				fmt.Printf("wrote %s\n", path)
			}
			if *chart {
				for _, name := range []string{"lock memory", "throughput", "latch waits", "latch spins", "latch parks", "global stall", "lock release p99", "throttle culled", "throttle ceiling"} {
					if s := outcome.Result.Series.Get(name); s != nil {
						fmt.Println(metrics.Chart(s, 72, 14))
					}
				}
			}
		}
		fmt.Println()
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "lockmemsim: %d experiment(s) had findings outside the published bands\n", failed)
		os.Exit(1)
	}
}
