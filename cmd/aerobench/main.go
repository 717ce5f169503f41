// Command aerobench regenerates the paper's tables and figures.
//
// Usage:
//
//	aerobench -exp table2 -scale small
//	aerobench -exp all -scale paper > results.txt
//
// Experiments: table1, table2, table3, table4, fig5, fig6, fig7, fig8,
// fig9, fig10, all. Scale "small" finishes in minutes on a laptop; "paper"
// uses the paper's dataset sizes and hyperparameters. Working numbers for
// the hot paths come from go test -bench; performance claims from bench/.
//
// With -json FILE, a machine-readable summary of per-experiment wall times
// is written to FILE, so CI and tooling can track regressions without
// scraping table output.
//
// With -cpuprofile FILE / -memprofile FILE, a CPU profile of the selected
// experiments and a post-run heap profile are written for go tool pprof.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"aero/internal/experiments"
)

// experimentResult is one -json entry for a table/figure regeneration.
type experimentResult struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// report is the -json document.
type report struct {
	GOOS        string             `json:"goos"`
	GOARCH      string             `json:"goarch"`
	Scale       string             `json:"scale"`
	Experiments []experimentResult `json:"experiments,omitempty"`
}

func main() {
	exp := flag.String("exp", "all", "experiment to run: table1..table4, fig5..fig10, all")
	scale := flag.String("scale", "small", "compute scale: small or paper")
	workers := flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	seed := flag.Int64("seed", 0, "seed offset for datasets and models")
	jsonPath := flag.String("json", "", "write machine-readable results (experiment times) to this file")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file (go tool pprof)")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file after the selected experiments finish")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	opts := experiments.Options{Workers: *workers, Seed: *seed}
	switch *scale {
	case "small":
		opts.Scale = experiments.ScaleSmall
	case "paper":
		opts.Scale = experiments.ScalePaper
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (want small or paper)\n", *scale)
		os.Exit(2)
	}

	runners := map[string]func(){
		"table1": func() { experiments.RunTable1(os.Stdout, opts) },
		"table2": func() { experiments.RunTable2(os.Stdout, opts) },
		"table3": func() { experiments.RunTable3(os.Stdout, opts) },
		"table4": func() { experiments.RunTable4(os.Stdout, opts) },
		"fig5":   func() { experiments.RunFig5(os.Stdout, opts) },
		"fig6":   func() { experiments.RunFig6(os.Stdout, opts) },
		"fig7":   func() { experiments.RunFig7(os.Stdout, opts) },
		"fig8":   func() { experiments.RunFig8(os.Stdout, opts) },
		"fig9":   func() { experiments.RunFig9(os.Stdout, opts) },
		"fig10":  func() { experiments.RunFig10(os.Stdout, opts) },
	}
	order := []string{"table1", "table2", "table3", "table4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10"}

	var selected []string
	if *exp == "all" {
		selected = order
	} else {
		for _, name := range strings.Split(*exp, ",") {
			name = strings.TrimSpace(name)
			if _, ok := runners[name]; !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (want %s or all)\n", name, strings.Join(order, ", "))
				os.Exit(2)
			}
			selected = append(selected, name)
		}
	}

	rep := report{GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Scale: *scale}
	start := time.Now()
	for _, name := range selected {
		t0 := time.Now()
		runners[name]()
		secs := time.Since(t0).Seconds()
		rep.Experiments = append(rep.Experiments, experimentResult{Name: name, Seconds: secs})
		fmt.Printf("[%s done in %.1fs]\n", name, secs)
	}
	fmt.Printf("\nall selected experiments done in %.1fs\n", time.Since(start).Seconds())

	if *jsonPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "json: %v\n", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "json: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
}
