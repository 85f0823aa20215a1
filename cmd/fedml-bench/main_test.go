package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/edgeai/fedml/internal/experiments"
)

// captureStdout runs fn with stdout redirected to a temporary file and
// returns what it printed.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = f
	runErr := fn()
	os.Stdout = old
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out), runErr
}

func TestListFlag(t *testing.T) {
	out, err := captureStdout(t, func() error { return run([]string{"-list"}) })
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range registryKeys() {
		if !strings.Contains(out, "key "+key+"]") {
			t.Errorf("-list does not mark the measured experiment with key %s:\n%s", key, out)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	_, err := captureStdout(t, func() error { return run([]string{"-exp", "fig99"}) })
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("unknown experiment: %v", err)
	}
}

func TestRunSingleExperiment(t *testing.T) {
	if _, err := captureStdout(t, func() error { return run([]string{"-exp", "table1"}) }); err != nil {
		t.Fatal(err)
	}
}

func TestBadFlag(t *testing.T) {
	// flag.ContinueOnError surfaces parse failures as errors, not exits.
	_, err := captureStdout(t, func() error { return run([]string{"-definitely-not-a-flag"}) })
	if err == nil {
		t.Error("bad flag accepted")
	}
}

// Flag combinations that used to be accepted and silently ignored (e.g.
// `-exp table1 -out x.json` exited 0 and wrote nothing) are rejected by name,
// before anything runs or is written.
func TestRejectsIgnoredFlags(t *testing.T) {
	out := filepath.Join(t.TempDir(), "x.json")
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"out without bench", []string{"-exp", "table1", "-out", out}, "-out"},
		{"codec with bench", []string{"-bench", "ext-scale", "-codec", "raw"}, "-codec"},
		{"exp with bench", []string{"-exp", "table1", "-bench", "ext-scale"}, "-exp"},
		{"unmeasured bench id", []string{"-bench", "table1"}, "not a measured experiment"},
		{"unknown bench id", []string{"-bench", "ext-scale,fig99"}, "unknown experiment"},
	}
	for _, c := range cases {
		stdout, err := captureStdout(t, func() error { return run(c.args) })
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one naming %q", c.name, err, c.want)
		}
		if stdout != "" {
			t.Errorf("%s: ran before rejecting:\n%s", c.name, stdout)
		}
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("a rejected run wrote %s", out)
	}
}

// A measurement file that does not parse must not be replaced by a file
// holding only the new entry: that silently lost every other recorded key.
func TestMergeRefusesCorruptSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "exp.json")
	corrupt := []byte(`{"ext_rec": {"arms": [1`)
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	err := mergeBenchEntry(path, "ext_scale", map[string]int{"nodes": 1})
	if !errors.Is(err, errCorruptSnapshot) {
		t.Fatalf("merge into a corrupt file: err = %v, want errCorruptSnapshot", err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, corrupt) {
		t.Errorf("corrupt file was modified: %q", got)
	}
}

// Merging keeps the other registered entries, drops keys the registry does
// not declare, and leaves no temporary file behind.
func TestMergeKeepsRegisteredEntries(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "exp.json")
	if err := os.WriteFile(path, []byte(`{"ext_rec": {"a": 1}, "legacy": 2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := mergeBenchEntry(path, "ext_scale", map[string]int{"nodes": 1}); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc) != 2 || doc["ext_rec"] == nil || doc["ext_scale"] == nil {
		t.Errorf("merged keys = %s", blob)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Errorf("%d files left in the directory, want 1", len(entries))
	}
}

// registryKeys lists the measured experiments' keys.
func registryKeys() []string {
	var keys []string
	for _, e := range experiments.All() {
		if e.Bench != nil {
			keys = append(keys, e.Bench.Key)
		}
	}
	return keys
}

// checkEntry requires an entry to decode through the type that writes it
// and re-encode to the same compact bytes, so a missing, renamed, retyped or
// extra field fails. The entry must not be null, and an entry with an arms
// field must list at least one arm.
func checkEntry(key string, raw []byte) error {
	var bench *experiments.Bench
	for _, e := range experiments.All() {
		if e.Bench != nil && e.Bench.Key == key {
			bench = e.Bench
		}
	}
	if bench == nil {
		return fmt.Errorf("%s: no registered experiment records this key", key)
	}
	entry, err := bench.Decode(raw)
	if err != nil {
		return fmt.Errorf("%s: %w", key, err)
	}
	got, err := json.Marshal(entry)
	if err != nil {
		return fmt.Errorf("%s: %w", key, err)
	}
	var want bytes.Buffer
	if err := json.Compact(&want, raw); err != nil {
		return fmt.Errorf("%s: %w", key, err)
	}
	if want.String() == "null" {
		return fmt.Errorf("%s: null entry", key)
	}
	if !bytes.Equal(got, want.Bytes()) {
		return fmt.Errorf("%s does not round-trip through %T:\n got %s\nwant %s", key, entry, got, want.Bytes())
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(got, &fields); err != nil {
		return fmt.Errorf("%s: %w", key, err)
	}
	if armsRaw, ok := fields["arms"]; ok {
		var arms []json.RawMessage
		if err := json.Unmarshal(armsRaw, &arms); err != nil || len(arms) == 0 {
			return fmt.Errorf("%s: empty or missing arms array", key)
		}
	}
	return nil
}

// checkSnapshot requires the measurement file's keys to be exactly the
// registry's, each entry passing checkEntry.
func checkSnapshot(blob []byte) error {
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(blob, &doc); err != nil {
		return err
	}
	keys := registryKeys()
	if len(doc) != len(keys) {
		return fmt.Errorf("snapshot has %d keys, the registry %d (%v)", len(doc), len(keys), keys)
	}
	for _, key := range keys {
		raw, ok := doc[key]
		if !ok {
			return fmt.Errorf("%s: key missing", key)
		}
		if err := checkEntry(key, raw); err != nil {
			return err
		}
	}
	return nil
}

func TestCommittedSnapshotRoundTrips(t *testing.T) {
	blob, err := os.ReadFile("../../BENCH_experiments.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSnapshot(blob); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotCheckRejects feeds the schema check damaged copies of the
// committed snapshot; each must be rejected.
func TestSnapshotCheckRejects(t *testing.T) {
	committed, err := os.ReadFile("../../BENCH_experiments.json")
	if err != nil {
		t.Fatal(err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, committed); err != nil {
		t.Fatal(err)
	}
	doc := compact.String()
	// edit rewrites the first match of pattern inside the ext_rec entry.
	edit := func(pattern, repl string) string {
		start := strings.Index(doc, `"ext_rec":`)
		end := start + strings.Index(doc[start:], `,"ext_scale":`)
		entry := doc[start:end]
		edited := regexp.MustCompile(pattern).ReplaceAllLiteralString(entry, repl)
		if edited == entry {
			t.Fatalf("pattern %q did not match ext_rec", pattern)
		}
		return doc[:start] + edited + doc[end:]
	}
	cases := map[string]string{
		"missing key":       strings.Replace(doc, `"ext_fault":`, `"ext_images":`, 1),
		"extra key":         strings.Replace(doc, `{`, `{"legacy":{},`, 1),
		"no arms":           edit(`,"arms":\[.*\]`, ``),
		"empty arms":        edit(`"arms":\[.*\]`, `"arms":[]`),
		"null arms":         edit(`"arms":\[.*\]`, `"arms":null`),
		"nameless arm":      edit(`"arm":"fedml",`, ``),
		"missing global":    edit(`"global_acc":[^,]*,`, ``),
		"missing adapted":   edit(`"adapted_acc":[^,]*,`, ``),
		"renamed field":     edit(`"adapted_acc"`, `"adapted_accuracy"`),
		"entry wrong shape": edit(`"arms":\[.*\]`, `"arms":"nope"`),
		"unknown scale":     edit(`"scale":"ci"`, `"scale":"huge"`),
		"null entry":        regexp.MustCompile(`"ext_scale":\{[^}]*\}`).ReplaceAllLiteralString(doc, `"ext_scale":null`),
		"not json":          `]`,
	}
	for name, blob := range cases {
		if err := checkSnapshot([]byte(blob)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestWorkloadsBenchWritesKeys runs the rec/fault matrices at CI scale
// through -bench, checks the personalization gate passes, and verifies both
// entries land in the keyed measurement file in the committed schema.
func TestWorkloadsBenchWritesKeys(t *testing.T) {
	if testing.Short() {
		t.Skip("eight training runs are slow")
	}
	out := filepath.Join(t.TempDir(), "exp.json")
	if _, err := captureStdout(t, func() error {
		return run([]string{"-bench", "ext-rec,ext-fault", "-out", out})
	}); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc) != 2 {
		t.Errorf("wrote %d keys, want ext_rec and ext_fault", len(doc))
	}
	for _, key := range []string{"ext_rec", "ext_fault"} {
		if err := checkEntry(key, doc[key]); err != nil {
			t.Error(err)
		}
		var entry struct {
			Trajectory []json.RawMessage `json:"trajectory"`
			Arms       []json.RawMessage `json:"arms"`
		}
		if err := json.Unmarshal(doc[key], &entry); err != nil {
			t.Fatal(err)
		}
		if len(entry.Arms) != 4 || len(entry.Trajectory) == 0 {
			t.Errorf("%s: %d arms and %d trajectory points, want 4 and some", key, len(entry.Arms), len(entry.Trajectory))
		}
	}
}
