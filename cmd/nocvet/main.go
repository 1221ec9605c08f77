// Command nocvet runs the repository's custom static-analysis suite
// (internal/analysis): mechanical enforcement of the two contracts the
// reproduction rests on — bit-deterministic simulation and an
// allocation-free Network.Step/Inject hot path.
//
//	go run ./cmd/nocvet ./...
//
// Analyzers and where they apply (see DESIGN.md §10):
//
//	detrange       every module package   map iteration order leaks into output
//	detsource      every module package   math/rand, wall-clock, env, racy select
//	hotalloc       internal/noc           allocations reachable from Step/Inject
//	telemetrysafe  internal/noc           scheduler state mutated outside sched.go
//	globalmut      every module package   package-level variables assigned outside init
//
// Escape hatches are //nocvet:orderfree, //nocvet:allowalloc and
// //nocvet:nondet comments, each requiring a reason; malformed or unused
// annotations are themselves findings. Exit status is 1 when anything is
// reported, so `make lint` and the CI nocvet job gate on a clean tree.
package main

import (
	"flag"
	"fmt"
	"log"

	"tasp/internal/analysis"
)

// init installs the usage text: package state such as flag.Usage is set up
// here, never reassigned later (the globalmut contract).
func init() {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: nocvet [packages]\n")
		flag.PrintDefaults()
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("nocvet: ")
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		log.Fatal(err)
	}
	findings := 0
	for _, pkg := range pkgs {
		suite := analysis.SuiteFor(pkg.ImportPath)
		if len(suite) == 0 {
			continue
		}
		diags, err := analysis.RunAnalyzers(pkg, suite)
		if err != nil {
			log.Fatal(err)
		}
		for _, d := range diags {
			fmt.Printf("%s: [%s] %s\n", pkg.Fset.Position(d.Pos), d.Analyzer, d.Message)
			findings++
		}
	}
	if findings > 0 {
		log.Fatalf("%d finding(s)", findings)
	}
}
