// Command benchjson converts `go test -bench` output read from stdin into a
// machine-readable JSON file: a map from benchmark name to its measured
// ns/op, B/op, allocs/op and iteration count. It is the back end of
// `make bench-json`, which records the repository's performance trajectory
// (BENCH_fedml.json) so regressions show up as diffs.
//
// Lines that are not benchmark results (headers, PASS/ok trailers, custom
// metrics it does not know) are ignored; unknown units on a benchmark line
// are skipped without error.
//
// The compare subcommand is the CI regression gate:
//
//	benchjson compare [-threshold 0.10] baseline.json current.json
//
// It exits non-zero when any benchmark's allocs/op or B/op grew by more than
// the threshold against the committed baseline, or when a baselined
// benchmark disappeared. ns/op is reported but never gated — wall time on
// shared CI runners is too noisy to block merges on.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Result is the parsed measurement of one benchmark.
type Result struct {
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// benchLine matches "BenchmarkName[-P] <iters> <value> <unit> ...". The -P
// suffix (GOMAXPROCS) is stripped from the name so results are comparable
// across machines.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$`)

// parse reads benchmark output and returns the results keyed by name. A
// benchmark that appears multiple times keeps its last occurrence.
func parse(r io.Reader) (map[string]Result, error) {
	out := make(map[string]Result)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			continue
		}
		res := Result{Iterations: iters}
		fields := strings.Fields(m[3])
		// Fields come in value/unit pairs after the iteration count.
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				res.NsPerOp = v
			case "B/op":
				res.BytesPerOp = v
			case "allocs/op":
				res.AllocsPerOp = v
			}
		}
		out[m[1]] = res
	}
	return out, sc.Err()
}

// write renders the results as deterministic (sorted-key, indented) JSON.
func write(w io.Writer, results map[string]Result) error {
	names := make([]string, 0, len(results))
	for name := range results {
		names = append(names, name)
	}
	sort.Strings(names)
	// Marshal via an ordered rendering: encoding/json sorts map keys, so a
	// plain Marshal of the map is already deterministic.
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	ordered := make(map[string]Result, len(results))
	for _, name := range names {
		ordered[name] = results[name]
	}
	return enc.Encode(ordered)
}

func run(in io.Reader, outPath string) error {
	results, err := parse(in)
	if err != nil {
		return fmt.Errorf("benchjson: reading input: %w", err)
	}
	if len(results) == 0 {
		return fmt.Errorf("benchjson: no benchmark lines found on stdin")
	}
	f, err := os.Create(outPath)
	if err != nil {
		return fmt.Errorf("benchjson: %w", err)
	}
	if err := write(f, results); err != nil {
		f.Close()
		return fmt.Errorf("benchjson: writing %s: %w", outPath, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("benchjson: %w", err)
	}
	fmt.Printf("benchjson: wrote %d benchmarks to %s\n", len(results), outPath)
	return nil
}

// loadResults reads a benchjson-written JSON file back into memory.
func loadResults(path string) (map[string]Result, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("benchjson: %w", err)
	}
	var out map[string]Result
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, fmt.Errorf("benchjson: parsing %s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("benchjson: %s holds no benchmarks", path)
	}
	return out, nil
}

// growth returns the relative increase of cur over base. A zero baseline
// only regresses when the current value became non-zero: the zero-allocation
// benchmarks guard exact zeros, so any growth there is unbounded.
func growth(base, cur float64) float64 {
	if base == 0 {
		if cur == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return cur/base - 1
}

// compare gates current against baseline: allocs/op and B/op may not grow by
// more than threshold on any baselined benchmark, and no baselined benchmark
// may vanish. It prints one line per benchmark and returns an error listing
// the failures, if any.
func compare(w io.Writer, baseline, current map[string]Result, threshold float64) error {
	names := make([]string, 0, len(baseline))
	for name := range baseline {
		names = append(names, name)
	}
	sort.Strings(names)
	var failures []string
	for _, name := range names {
		base := baseline[name]
		cur, ok := current[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: in baseline but not in current run", name))
			continue
		}
		status := "ok"
		for _, dim := range []struct {
			unit      string
			base, cur float64
		}{
			{"allocs/op", base.AllocsPerOp, cur.AllocsPerOp},
			{"B/op", base.BytesPerOp, cur.BytesPerOp},
		} {
			if g := growth(dim.base, dim.cur); g > threshold {
				status = "FAIL"
				failures = append(failures, fmt.Sprintf("%s: %s %.0f -> %.0f (%+.1f%% > %.0f%%)",
					name, dim.unit, dim.base, dim.cur, g*100, threshold*100))
			}
		}
		fmt.Fprintf(w, "%-4s %-40s allocs/op %8.0f -> %-8.0f B/op %10.0f -> %-10.0f ns/op %12.0f -> %-12.0f\n",
			status, name, base.AllocsPerOp, cur.AllocsPerOp, base.BytesPerOp, cur.BytesPerOp, base.NsPerOp, cur.NsPerOp)
	}
	for name := range current {
		if _, ok := baseline[name]; !ok {
			fmt.Fprintf(w, "new  %s (not in baseline; will be gated once recorded)\n", name)
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("benchjson: %d regression(s) beyond %.0f%%:\n  %s",
			len(failures), threshold*100, strings.Join(failures, "\n  "))
	}
	fmt.Fprintf(w, "benchjson: %d benchmarks within %.0f%% of baseline\n", len(names), threshold*100)
	return nil
}

func runCompare(args []string) error {
	fs := flag.NewFlagSet("benchjson compare", flag.ContinueOnError)
	threshold := fs.Float64("threshold", 0.10, "maximum allowed relative growth in allocs/op and B/op")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("benchjson compare: want <baseline.json> <current.json>, got %d args", fs.NArg())
	}
	baseline, err := loadResults(fs.Arg(0))
	if err != nil {
		return err
	}
	current, err := loadResults(fs.Arg(1))
	if err != nil {
		return err
	}
	return compare(os.Stdout, baseline, current, *threshold)
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := runCompare(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	out := flag.String("out", "BENCH_fedml.json", "output JSON path")
	flag.Parse()
	if err := run(os.Stdin, *out); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
