package main

import (
	"bufio"
	"strings"
	"testing"
)

func TestTrimProcs(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkSolver-2":             "BenchmarkSolver",
		"BenchmarkSolver-16":            "BenchmarkSolver",
		"BenchmarkSolver":               "BenchmarkSolver",
		"BenchmarkServe/decode-8":       "BenchmarkServe/decode",
		"BenchmarkServe/hit-rate-x":     "BenchmarkServe/hit-rate-x",
		"BenchmarkTrailingDash-":        "BenchmarkTrailingDash-",
		"BenchmarkSizes/msg=64MiB-4":    "BenchmarkSizes/msg=64MiB",
		"BenchmarkSizes/cores-12-4":     "BenchmarkSizes/cores-12",
		"BenchmarkClusterHaloExchange-": "BenchmarkClusterHaloExchange-",
	} {
		if got := trimProcs(in); got != want {
			t.Errorf("trimProcs(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestParseMatchesBaselineNames: the same benchmark run on machines with
// different GOMAXPROCS parses to the same (package, name).
func TestParseMatchesBaselineNames(t *testing.T) {
	const out = `goos: linux
goarch: amd64
pkg: memcontention
cpu: Intel(R) Xeon(R) Processor
BenchmarkTable2Errors-2   	      61	  17626126 ns/op	         2.252 %err	 5641749 B/op	   81304 allocs/op
BenchmarkSolver-2         	  174072	      6227 ns/op	    2840 B/op	      24 allocs/op
pkg: memcontention/internal/engine
BenchmarkFlowsRegistry    	   23264	     50238 ns/op	    8616 B/op	     115 allocs/op
PASS
`
	results, err := parse(bufio.NewScanner(strings.NewReader(out)))
	if err != nil {
		t.Fatal(err)
	}
	want := []Result{
		{Package: "memcontention", Name: "BenchmarkTable2Errors", Iterations: 61, NsPerOp: 17626126, BytesPerOp: 5641749, AllocsPerOp: 81304},
		{Package: "memcontention", Name: "BenchmarkSolver", Iterations: 174072, NsPerOp: 6227, BytesPerOp: 2840, AllocsPerOp: 24},
		{Package: "memcontention/internal/engine", Name: "BenchmarkFlowsRegistry", Iterations: 23264, NsPerOp: 50238, BytesPerOp: 8616, AllocsPerOp: 115},
	}
	if len(results) != len(want) {
		t.Fatalf("parsed %d results, want %d: %+v", len(results), len(want), results)
	}
	for i := range want {
		if results[i] != want[i] {
			t.Errorf("result %d = %+v, want %+v", i, results[i], want[i])
		}
	}
}
