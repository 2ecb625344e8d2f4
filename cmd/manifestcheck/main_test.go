package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hideseek/internal/obs"
)

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func validManifest(t *testing.T) string {
	t.Helper()
	m := obs.NewManifest("test", 1, 2)
	m.Experiments = []obs.ExperimentStats{{Name: "exp", WallMS: 5, Trials: 10, TrialsPerSec: 2000}}
	m.TrialsTotal = 10
	m.Timers = map[string]obs.TimerStats{
		"a": {Count: 1}, "b": {Count: 1}, "c": {Count: 1},
	}
	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCheckManifest(t *testing.T) {
	summary, err := check(validManifest(t))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(summary, "1 experiments") || !strings.Contains(summary, "10 trials") {
		t.Errorf("unexpected summary %q", summary)
	}
}

func TestCheckRejectsUnknownField(t *testing.T) {
	data, err := os.ReadFile(validManifest(t))
	if err != nil {
		t.Fatal(err)
	}
	mutated := strings.Replace(string(data), "\"command\"", "\"surprise\": 1, \"command\"", 1)
	if mutated == string(data) {
		t.Fatal("manifest has no command field to prefix")
	}
	if _, err := check(writeTemp(t, "bad.json", mutated)); err == nil || !strings.Contains(err.Error(), "unknown field") {
		t.Fatalf("err = %v, want strict decode to reject the unknown field", err)
	}
}

func TestCheckRejectsUnknownSchema(t *testing.T) {
	path := writeTemp(t, "odd.json", `{"schema": "hideseek.other/v9"}`)
	if _, err := check(path); err == nil || !strings.Contains(err.Error(), "unknown schema") {
		t.Fatalf("err = %v, want unknown schema", err)
	}
}

func TestCheckRejectsMissingSchema(t *testing.T) {
	path := writeTemp(t, "none.json", `{"command": "x"}`)
	if _, err := check(path); err == nil || !strings.Contains(err.Error(), "no schema") {
		t.Fatalf("err = %v, want no schema field", err)
	}
}
