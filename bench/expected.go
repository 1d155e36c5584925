package main

import (
	_ "embed"
	"encoding/json"
)

//go:embed expected.json
var expectedJSON []byte

// expectedResult pins one network's (or one bounded stream's) answer.
type expectedResult struct {
	Modes       int    `json:"modes"`
	Fingerprint string `json:"fingerprint"`
}

// expectations is expected.json: every result the benchmark can
// produce, keyed by network (and stream), and every exact counter of
// the traced pass, keyed by "<workload>/<network key>". A mismatch in
// either fails the run.
type expectations struct {
	Results  map[string]expectedResult     `json:"results"`
	Counters map[string]map[string]float64 `json:"counters"`
}

func loadExpectations() (*expectations, error) {
	var e expectations
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return nil, err
	}
	return &e, nil
}
