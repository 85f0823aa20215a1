package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: github.com/edgeai/fedml
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkFig2aNodeSimilarity 	       1	1121150641 ns/op	672436408 B/op	  414879 allocs/op
BenchmarkMetaStep-8          	   25982	     49057 ns/op	   32992 B/op	      18 allocs/op
BenchmarkGradInto/softmax-8  	  209064	      6813 ns/op	       0 B/op	       0 allocs/op
BenchmarkAblationLocalSteps/T0=5-8 	  100	 12345 ns/op	        42.0 msgs/op	 100 B/op	 7 allocs/op
PASS
ok  	github.com/edgeai/fedml	5.799s
`

func TestParse(t *testing.T) {
	got, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]Result{
		"BenchmarkFig2aNodeSimilarity":     {Iterations: 1, NsPerOp: 1121150641, BytesPerOp: 672436408, AllocsPerOp: 414879},
		"BenchmarkMetaStep":                {Iterations: 25982, NsPerOp: 49057, BytesPerOp: 32992, AllocsPerOp: 18},
		"BenchmarkGradInto/softmax":        {Iterations: 209064, NsPerOp: 6813},
		"BenchmarkAblationLocalSteps/T0=5": {Iterations: 100, NsPerOp: 12345, BytesPerOp: 100, AllocsPerOp: 7},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d: %v", len(got), len(want), got)
	}
	for name, w := range want {
		if g, ok := got[name]; !ok || g != w {
			t.Errorf("%s = %+v, want %+v", name, got[name], w)
		}
	}
}

func TestParseIgnoresGarbage(t *testing.T) {
	got, err := parse(strings.NewReader("hello\nBenchmarkX notanumber 5 ns/op\n--- FAIL: TestY\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("parsed %v from garbage", got)
	}
}

func TestRunWritesJSON(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	if err := run(strings.NewReader(sample), out); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]Result
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if decoded["BenchmarkMetaStep"].AllocsPerOp != 18 {
		t.Errorf("round-trip lost data: %+v", decoded["BenchmarkMetaStep"])
	}
}

func TestRunRejectsEmptyInput(t *testing.T) {
	if err := run(strings.NewReader("no benchmarks here\n"), filepath.Join(t.TempDir(), "x.json")); err == nil {
		t.Error("empty input accepted")
	}
}

func TestCompareWithinThreshold(t *testing.T) {
	base := map[string]Result{
		"BenchmarkA": {AllocsPerOp: 100, BytesPerOp: 1000, NsPerOp: 50},
		"BenchmarkZ": {AllocsPerOp: 0, BytesPerOp: 0, NsPerOp: 10},
	}
	cur := map[string]Result{
		"BenchmarkA": {AllocsPerOp: 109, BytesPerOp: 1099, NsPerOp: 500}, // +9%, ns/op ignored
		"BenchmarkZ": {AllocsPerOp: 0, BytesPerOp: 0, NsPerOp: 9},
		"BenchmarkN": {AllocsPerOp: 7}, // new, not gated
	}
	var out strings.Builder
	if err := compare(&out, base, cur, 0.10); err != nil {
		t.Fatalf("within-threshold run failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "new  BenchmarkN") {
		t.Errorf("new benchmark not reported:\n%s", out.String())
	}
}

func TestCompareFailsOnAllocRegression(t *testing.T) {
	base := map[string]Result{"BenchmarkA": {AllocsPerOp: 100, BytesPerOp: 1000}}
	cur := map[string]Result{"BenchmarkA": {AllocsPerOp: 120, BytesPerOp: 1000}}
	var out strings.Builder
	err := compare(&out, base, cur, 0.10)
	if err == nil {
		t.Fatal("20% allocs/op growth passed the 10% gate")
	}
	if !strings.Contains(err.Error(), "allocs/op") {
		t.Errorf("failure does not name the regressing unit: %v", err)
	}
}

func TestCompareFailsOnByteRegression(t *testing.T) {
	base := map[string]Result{"BenchmarkA": {AllocsPerOp: 10, BytesPerOp: 1000}}
	cur := map[string]Result{"BenchmarkA": {AllocsPerOp: 10, BytesPerOp: 1200}}
	if err := compare(&strings.Builder{}, base, cur, 0.10); err == nil {
		t.Fatal("20% B/op growth passed the 10% gate")
	}
}

func TestCompareFailsOnZeroBaselineGrowth(t *testing.T) {
	// The zero-allocation kernels guard exact zeros: any allocation is a
	// regression no matter the threshold.
	base := map[string]Result{"BenchmarkGrad": {AllocsPerOp: 0, BytesPerOp: 0}}
	cur := map[string]Result{"BenchmarkGrad": {AllocsPerOp: 1, BytesPerOp: 16}}
	if err := compare(&strings.Builder{}, base, cur, 0.10); err == nil {
		t.Fatal("allocation on a zero-alloc baseline passed the gate")
	}
}

func TestCompareFailsOnMissingBenchmark(t *testing.T) {
	base := map[string]Result{"BenchmarkA": {AllocsPerOp: 1}, "BenchmarkGone": {AllocsPerOp: 1}}
	cur := map[string]Result{"BenchmarkA": {AllocsPerOp: 1}}
	err := compare(&strings.Builder{}, base, cur, 0.10)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkGone") {
		t.Fatalf("vanished baseline benchmark not flagged: %v", err)
	}
}

func TestCompareRoundTripFiles(t *testing.T) {
	dir := t.TempDir()
	basePath := filepath.Join(dir, "base.json")
	if err := run(strings.NewReader(sample), basePath); err != nil {
		t.Fatal(err)
	}
	loaded, err := loadResults(basePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := compare(&strings.Builder{}, loaded, loaded, 0.10); err != nil {
		t.Errorf("self-comparison failed: %v", err)
	}
}
