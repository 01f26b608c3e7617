package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// BENCHMARK.json at the repository root names the metrics an untraced
// and a traced run print; it must list exactly these, with these units,
// and the workloads this binary runs.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, want)
	}
	for _, tc := range []struct {
		section string
		listed  []struct{ Name, Unit string }
		defs    []metricDef
	}{
		{"end_to_end", spec.EndToEnd, endToEnd},
		{"per_layer", spec.PerLayer, perLayer()},
	} {
		got := map[string]string{}
		for _, m := range tc.listed {
			got[m.Name] = m.Unit
		}
		for _, d := range tc.defs {
			if u, ok := got[d.name]; !ok || u != d.unit {
				t.Errorf("%s: %s (%s) listed as %q", tc.section, d.name, d.unit, u)
			}
			delete(got, d.name)
		}
		for name := range got {
			t.Errorf("%s lists %s, which refbench does not report", tc.section, name)
		}
	}
}
