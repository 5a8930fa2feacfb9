package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json, at the repository root, must name exactly the metrics
// and workloads this program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	want := []string{auditFresh.name, auditChurn.name, curateName}
	if len(spec.Workloads) != len(want) {
		t.Fatalf("BENCHMARK.json lists %d workloads, want %v", len(spec.Workloads), want)
	}
	for i, w := range want {
		if spec.Workloads[i].Name != w {
			t.Errorf("workload %d: %s, want %s", i, spec.Workloads[i].Name, w)
		}
	}
}

// spec.json describes every workload and maps every per-layer metric.
func TestSpecCoversWorkloadsAndLayers(t *testing.T) {
	data, err := os.ReadFile("spec.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads map[string]json.RawMessage
		LayerMap  []struct{ Layer string } `json:"layer_map"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{auditFresh.name, auditChurn.name, curateName} {
		if _, ok := spec.Workloads[w]; !ok {
			t.Errorf("spec.json does not describe workload %s", w)
		}
	}
	mapped := map[string]int{}
	for _, l := range spec.LayerMap {
		mapped[l.Layer]++
	}
	for _, m := range perLayer {
		if mapped[m.name] != 1 {
			t.Errorf("spec.json maps %s %d times, want once", m.name, mapped[m.name])
		}
		delete(mapped, m.name)
	}
	for name := range mapped {
		t.Errorf("spec.json maps %s, which the program does not report", name)
	}
}
