package experiments

import "testing"

func TestExtAsyncCI(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second latency-skew comparison")
	}
	if raceEnabled {
		t.Skip("wall-clock speedup assertion is meaningless under race instrumentation")
	}
	res, err := RunExtAsync(DefaultExtAsyncConfig(ScaleCI))
	if err != nil {
		t.Fatal(err)
	}
	if res.SyncRounds == 0 || res.AsyncRounds == 0 {
		t.Fatalf("degenerate run: %+v", res)
	}
	if err := res.Gate(); err != nil {
		t.Error(err)
	}
	if res.Render() == "" {
		t.Error("empty render")
	}
}
