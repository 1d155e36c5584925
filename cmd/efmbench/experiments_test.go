package main

import "testing"

// The quick experiments must run clean end-to-end (output goes to
// stdout; correctness of the numbers is asserted by the library tests —
// these are harness smoke tests).
func TestQuickExperiments(t *testing.T) {
	for _, e := range experiments {
		if err := e.run(); err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
	}
}

func TestExperimentNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range experiments {
		if seen[e.name] {
			t.Fatalf("duplicate experiment %q", e.name)
		}
		seen[e.name] = true
		if e.desc == "" || e.run == nil {
			t.Fatalf("experiment %q incomplete", e.name)
		}
	}
}
