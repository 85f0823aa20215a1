// Command fedml-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	fedml-bench -list                   # show available experiments and the measured ones' keys
//	fedml-bench -exp fig2a              # run one experiment (CI scale)
//	fedml-bench -exp all -paper         # run everything at paper scale
//	fedml-bench -bench par -workers 4   # measure and gate the fig2a worker sweep
//	fedml-bench -bench all -out BENCH_experiments.json
//	                                    # run every measured experiment, gate it, record its entry
//
// Each experiment prints the same rows/series the paper reports; the
// per-experiment index lives in DESIGN.md §4. A measured experiment also
// declares, in the registry, the key of its BENCH_experiments.json entry and
// the gate its result must pass; -bench runs it, applies the gate and, with
// -out, merges the entry into the file.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/edgeai/fedml/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fedml-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("fedml-bench", flag.ContinueOnError)
	var (
		exp     = fs.String("exp", "all", "experiment id (see -list) or \"all\"")
		paper   = fs.Bool("paper", false, "run at the paper's scale instead of the fast CI scale")
		list    = fs.Bool("list", false, "list available experiments and exit")
		workers = fs.Int("workers", 0, "worker count for parallel sections (0 = all cores, 1 = serial)")
		bench   = fs.String("bench", "", "comma-separated measured experiment ids (see -list) or \"all\": run each and enforce its gate")
		out     = fs.String("out", "", "with -bench: merge each measured entry into this keyed JSON file")
		codecs  = fs.String("codec", "", "with -exp ext-codec: comma-separated update codecs to compare, first is the baseline (default raw,f16,q8,topk)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	expSet := false
	fs.Visit(func(f *flag.Flag) { expSet = expSet || f.Name == "exp" })
	switch {
	case *out != "" && *bench == "":
		return errors.New("-out only applies to -bench")
	case *bench != "" && *codecs != "":
		return errors.New("-codec does not apply to -bench")
	case *bench != "" && expSet:
		return errors.New("-exp and -bench are exclusive")
	}

	if *list {
		fmt.Println("available experiments:")
		for _, e := range experiments.All() {
			key := ""
			if e.Bench != nil {
				key = " [-bench, key " + e.Bench.Key + "]"
			}
			fmt.Printf("  %-8s %s%s\n", e.ID, e.Description, key)
		}
		return nil
	}

	scale := experiments.ScaleCI
	if *paper {
		scale = experiments.ScalePaper
	}

	ids := *exp
	if *bench != "" {
		ids = *bench
	}
	todo, err := selectExperiments(ids, *bench != "")
	if err != nil {
		return err
	}
	if *codecs != "" {
		if *exp != "ext-codec" {
			return fmt.Errorf("-codec only applies to -exp ext-codec (got -exp %s)", *exp)
		}
		todo[0].Run = func(s experiments.Scale, w int) (experiments.Renderable, error) {
			cfg := experiments.DefaultExtCodecConfig(s)
			cfg.Workers, cfg.Codecs = w, strings.Split(*codecs, ",")
			return experiments.RunExtCodec(cfg)
		}
	}
	for _, e := range todo {
		start := time.Now()
		res, err := e.Run(scale, *workers)
		if err != nil {
			return fmt.Errorf("experiment %s: %w", e.ID, err)
		}
		fmt.Printf("=== %s (scale=%s, %.1fs) ===\n%s\n", e.ID, scale, time.Since(start).Seconds(), res.Render())
		if *bench == "" {
			continue
		}
		entry, err := e.Bench.Record(res)
		if err != nil {
			return fmt.Errorf("bench %s: %w", e.ID, err)
		}
		if *out != "" {
			if err := mergeBenchEntry(*out, e.Bench.Key, entry); err != nil {
				return err
			}
		}
	}
	return nil
}

// selectExperiments resolves a comma-separated id list, or "all", to
// registered experiments — only measured ones when measuredOnly is set.
func selectExperiments(ids string, measuredOnly bool) ([]experiments.Experiment, error) {
	if ids == "all" {
		var all []experiments.Experiment
		for _, e := range experiments.All() {
			if !measuredOnly || e.Bench != nil {
				all = append(all, e)
			}
		}
		return all, nil
	}
	var picked []experiments.Experiment
	for _, id := range strings.Split(ids, ",") {
		e, err := experiments.Find(id)
		if err != nil {
			return nil, err
		}
		if measuredOnly && e.Bench == nil {
			return nil, fmt.Errorf("-bench %s: not a measured experiment (see -list)", id)
		}
		picked = append(picked, e)
	}
	return picked, nil
}

// errCorruptSnapshot marks a measurement file that exists but is not a keyed
// JSON object. Merging into it would silently drop every recorded entry, so
// the merge is refused and the file left untouched.
var errCorruptSnapshot = errors.New("existing measurement file does not parse")

// mergeBenchEntry read-modify-writes one entry into the keyed measurement
// file. Entries under the other registered keys are kept; anything else
// found in the file (e.g. a retired key) is dropped.
func mergeBenchEntry(path, key string, entry any) error {
	doc := map[string]json.RawMessage{}
	if blob, err := os.ReadFile(path); err == nil {
		var prev map[string]json.RawMessage
		if err := json.Unmarshal(blob, &prev); err != nil {
			return fmt.Errorf("bench merge %s: %w: %v", path, errCorruptSnapshot, err)
		}
		for _, e := range experiments.All() {
			if e.Bench == nil {
				continue
			}
			if v, ok := prev[e.Bench.Key]; ok {
				doc[e.Bench.Key] = v
			}
		}
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("bench merge read %s: %w", path, err)
	}
	blob, err := json.Marshal(entry)
	if err != nil {
		return fmt.Errorf("bench marshal %s: %w", key, err)
	}
	doc[key] = blob
	// MarshalIndent re-indents the embedded raw entries consistently.
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fmt.Errorf("bench marshal %s: %w", path, err)
	}
	return writeFileAtomic(path, append(out, '\n'))
}

// writeFileAtomic writes data to a temporary file in path's directory and
// renames it over path, so an interrupted write never truncates the
// previous snapshot.
func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("bench write %s: %w", path, err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Chmod(0o644)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		return fmt.Errorf("bench write %s: %w", path, err)
	}
	return nil
}
