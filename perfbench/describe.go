package main

import (
	"encoding/json"
	"io"
)

// runSeconds is how long one driver run measures.
const runSeconds = 25

type describedWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type describedEndToEnd struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type describedLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// description is BENCHMARK.json, generated from this package's tables so
// the committed file and the program cannot drift apart.
type description struct {
	Command    []string            `json:"command"`
	Paths      []string            `json:"paths"`
	RunSeconds int                 `json:"run_seconds"`
	Workloads  []describedWorkload `json:"workloads"`
	EndToEnd   []describedEndToEnd `json:"end_to_end"`
	PerLayer   []describedLayer    `json:"per_layer"`
}

// betterOf is the direction in which a per-layer metric improves. The
// per-layer numbers carry no bound. Less time, waiting, work and waste is
// better; the planner and router decision fractions are higher when the
// skew mechanism fires on the workload built to exercise it.
func betterOf(name string) string {
	switch name {
	case "planner.skew_detected_frac", "planner.streaming_frac", "router.frag_frac":
		return "higher"
	}
	return "lower"
}

func describe() description {
	d := description{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		d.Workloads = append(d.Workloads, describedWorkload{Name: w.name, Why: w.why})
	}
	for _, m := range endToEnd {
		d.EndToEnd = append(d.EndToEnd, describedEndToEnd{Name: m.name, Unit: m.unit, Better: m.better, Bound: m.bound})
	}
	for _, m := range perLayer {
		d.PerLayer = append(d.PerLayer, describedLayer{Name: m.name, Unit: m.unit, Better: betterOf(m.name)})
	}
	return d
}

func writeDescription(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(describe())
}
