// Command manifestcheck validates run manifests: the ones written by
// `experiments -manifest` or flushed by `hideseekd` on shutdown. It
// decodes strictly (unknown fields fail) and applies the schema
// invariants in obs; a file with another "schema" field is rejected.
// CI runs it against fresh files so writer/schema drift is caught at
// merge time.
//
// Usage:
//
//	manifestcheck <manifest.json> [more.json ...]
//
// Every argument is validated; the run fails on the first invalid file.
package main

import (
	"encoding/json"
	"fmt"
	"os"

	"hideseek/internal/obs"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: manifestcheck <manifest.json> [more.json ...]")
		os.Exit(2)
	}
	for _, path := range os.Args[1:] {
		summary, err := check(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "manifestcheck:", err)
			os.Exit(1)
		}
		fmt.Println(summary)
	}
}

// check validates path and returns the one-line success summary. The
// schema field is sniffed first so that a file of another kind fails
// with a clear error rather than a field-by-field decode failure.
func check(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	schema, err := sniffSchema(data)
	if err != nil {
		return "", fmt.Errorf("%s: %w", path, err)
	}
	if schema != obs.ManifestSchema {
		return "", fmt.Errorf("%s: unknown schema %q (want %q)", path, schema, obs.ManifestSchema)
	}
	m, err := obs.DecodeManifest(data)
	if err != nil {
		return "", err
	}
	if err := m.Validate(); err != nil {
		return "", err
	}
	if m.Kind == obs.KindService {
		summary := fmt.Sprintf("ok: %s — %s service, protocols %v, %.0f ms wall, %d counters, %d timers",
			path, m.Command, m.Protocols, m.WallMS, len(m.Counters), len(m.Timers))
		if s := alertSummary(m.Alerts); s != "" {
			summary += ", alerts: " + s
		}
		return summary, nil
	}
	return fmt.Sprintf("ok: %s — %s, %d experiments, %d trials, %d timers",
		path, m.Command, len(m.Experiments), m.TrialsTotal, len(m.Timers)), nil
}

// alertSummary renders a service manifest's SLO rule states, calling
// out every rule that fired during the run ("" when no alert engine
// ran).
func alertSummary(alerts []obs.AlertSample) string {
	if len(alerts) == 0 {
		return ""
	}
	fired := 0
	var firedNames string
	for _, a := range alerts {
		if a.FiredTotal > 0 {
			if fired > 0 {
				firedNames += " "
			}
			firedNames += fmt.Sprintf("%s(%s,fired=%d)", a.Name, a.State, a.FiredTotal)
			fired++
		}
	}
	if fired == 0 {
		return fmt.Sprintf("%d rules, none fired", len(alerts))
	}
	return fmt.Sprintf("%d rules, %d fired: %s", len(alerts), fired, firedNames)
}

// sniffSchema extracts just the "schema" field; full strict decoding
// happens in obs.DecodeManifest.
func sniffSchema(data []byte) (string, error) {
	var probe struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return "", fmt.Errorf("not a JSON document: %w", err)
	}
	if probe.Schema == "" {
		return "", fmt.Errorf("no schema field")
	}
	return probe.Schema, nil
}
