package experiments

import "testing"

func TestExtScaleCI(t *testing.T) {
	cfg := DefaultExtScaleConfig(ScaleCI)
	res, err := RunExtScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes != cfg.Nodes || res.Rounds != cfg.Rounds {
		t.Fatalf("result shape %+v does not match config %+v", res, cfg)
	}
	if res.Root.Messages != 2*cfg.Nodes*cfg.Rounds {
		t.Errorf("messages = %d, want %d", res.Root.Messages, 2*cfg.Nodes*cfg.Rounds)
	}
	if err := res.Gate(); err != nil {
		t.Error(err)
	}
	if res.Render() == "" {
		t.Error("empty render")
	}
}

func TestExtScaleDeterministic(t *testing.T) {
	cfg := DefaultExtScaleConfig(ScaleCI)
	cfg.Nodes = 512
	cfg.Shards = 3
	a, err := RunExtScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunExtScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.MaxClosedFormErr != b.MaxClosedFormErr || a.Root != b.Root {
		t.Errorf("ext-scale not deterministic: %+v vs %+v", a, b)
	}
}
