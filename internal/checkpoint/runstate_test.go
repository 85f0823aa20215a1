package checkpoint

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/edgeai/fedml/internal/transport"
)

func validRunState() *RunState {
	return &RunState{
		Version: RunStateVersion,
		Round:   3, Iter: 15, T0: 5,
		Dispersion: 0.25,
		Theta:      []float64{0.1, -0.2, 0.3},
		ShardStats: transport.ShardStats{Rounds: 3, Messages: 18, Bytes: 432, Dropped: 1, Rejoined: 1, Rejected: 2},
	}
}

func TestRunStateRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.state")
	want := validRunState()
	if err := SaveRunState(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := LoadRunState(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Round != want.Round || got.Iter != want.Iter || got.T0 != want.T0 ||
		got.Dispersion != want.Dispersion || got.Dropped != want.Dropped ||
		got.Rejoined != want.Rejoined || got.Rejected != want.Rejected ||
		got.Messages != want.Messages || got.Bytes != want.Bytes {
		t.Errorf("round trip mismatch: got %+v want %+v", got, want)
	}
	for i, v := range want.Theta {
		if got.Theta[i] != v {
			t.Errorf("theta[%d] = %v, want %v", i, got.Theta[i], v)
		}
	}
}

func TestRunStateOverwriteKeepsLatest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.state")
	s := validRunState()
	if err := SaveRunState(path, s); err != nil {
		t.Fatal(err)
	}
	s.Round, s.Iter, s.Rounds = 4, 20, 4
	if err := SaveRunState(path, s); err != nil {
		t.Fatal(err)
	}
	got, err := LoadRunState(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Round != 4 {
		t.Errorf("round = %d, want 4 (latest snapshot)", got.Round)
	}
	// The atomic write must not leave temp files behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("stale temp file left behind: %s", e.Name())
		}
	}
}

func TestRunStateMissingFileIsNotExist(t *testing.T) {
	_, err := LoadRunState(filepath.Join(t.TempDir(), "nope.state"))
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("err = %v, want os.ErrNotExist", err)
	}
}

func TestRunStateValidation(t *testing.T) {
	bad := []*RunState{
		func() *RunState { s := validRunState(); s.Version = 99; return s }(),
		func() *RunState { s := validRunState(); s.Round = 0; return s }(),
		func() *RunState { s := validRunState(); s.Iter = 0; return s }(),
		func() *RunState { s := validRunState(); s.T0 = 0; return s }(),
		func() *RunState { s := validRunState(); s.Theta = nil; return s }(),
		func() *RunState { s := validRunState(); s.Theta[1] = math.NaN(); return s }(),
	}
	path := filepath.Join(t.TempDir(), "run.state")
	for i, s := range bad {
		if err := SaveRunState(path, s); err == nil {
			t.Errorf("bad run state %d saved", i)
		}
	}
}

func TestRunStateRejectsGarbageFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.state")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadRunState(path); err == nil {
		t.Fatal("garbage run state loaded")
	}
}

// TestRunStateDecodesPreStaleSnapshot pins the on-disk format: a snapshot
// written before the stale and budget counters existed (no stale_* or
// budget_filtered keys) still loads, with those counters zero and every
// other counter in place.
func TestRunStateDecodesPreStaleSnapshot(t *testing.T) {
	const old = `{"version":1,"round":2,"iter":10,"t0":5,"dispersion":0.5,` +
		`"theta":[0.25,-0.5],"rounds":2,"messages":12,"bytes":192,` +
		`"dropped":1,"rejoined":1,"rejected":3,"skipped_rounds":1}`
	path := filepath.Join(t.TempDir(), "run.state")
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadRunState(path)
	if err != nil {
		t.Fatal(err)
	}
	want := transport.ShardStats{Rounds: 2, Messages: 12, Bytes: 192, Dropped: 1, Rejoined: 1, Rejected: 3, SkippedRounds: 1}
	if got.ShardStats != want {
		t.Errorf("counters = %+v, want %+v", got.ShardStats, want)
	}
	if got.Round != 2 || got.Iter != 10 || got.T0 != 5 || got.Dispersion != 0.5 || len(got.Theta) != 2 {
		t.Errorf("loop state = %+v", got)
	}
	// Re-encoding keeps the flat key layout: no nested counter object.
	if err := SaveRunState(path, got); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"rounds":2`, `"messages":12`, `"skipped_rounds":1`} {
		if !strings.Contains(string(raw), key) {
			t.Errorf("re-encoded snapshot %s lacks %s", raw, key)
		}
	}
	if strings.Contains(string(raw), "ShardStats") {
		t.Errorf("re-encoded snapshot nests the counters: %s", raw)
	}
}
