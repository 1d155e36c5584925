// Package server exposes the jobs manager over HTTP: a small JSON API
// for submitting enumeration requests, streaming their progress as
// NDJSON, fetching results, and canceling. The wire structs double as
// the machine-readable output format of efmcalc -json, so scripts can
// switch between the CLI and the service without reshaping anything.
package server

import (
	"fmt"
	"math"
	"strings"
	"time"

	"elmocomp"
	"elmocomp/internal/jobs"
	"elmocomp/internal/parallel"
)

// RunOptions is the JSON mirror of elmocomp.Config. Zero values mean
// the library defaults; the field vocabulary matches the efmcalc flags,
// and efmcalc builds its Config through this struct too, so Config() is
// the one place option strings and sizes from outside are checked.
type RunOptions struct {
	// Backend picks the enumeration family: "nullspace" (default, the
	// double-description drivers selected by Algorithm), "revsearch"
	// (lexicographic reverse search), or "ondemand" (the interactive
	// ranked-streaming tier). The exhaustive backends are result-neutral
	// — all compute the identical canonical mode set — so the choice is
	// not part of the request key and a cached result serves any of
	// them; a bounded on-demand request (k > 0) keys on K and Objective.
	Backend        string   `json:"backend,omitempty"`   // nullspace | revsearch | ondemand
	Algorithm      string   `json:"algorithm,omitempty"` // serial | parallel | dnc
	Nodes          int      `json:"nodes,omitempty"`
	Workers        int      `json:"workers,omitempty"`
	Qsub           int      `json:"qsub,omitempty"`
	Groups         int      `json:"groups,omitempty"`
	Partition      []string `json:"partition,omitempty"`
	KeepDuplicates bool     `json:"keep_duplicates,omitempty"`
	MaxModes       int      `json:"max_modes,omitempty"`
	// K bounds the on-demand stream: stop after the first k ranked modes
	// (0 = run to exhaustion). Streaming-tier only — distinct from
	// MaxModes, which budgets INTERMEDIATE modes in the batch backends.
	K int `json:"k,omitempty"`
	// Objective maps reaction names to exact rational weights ("1/2",
	// "-3") ranking the on-demand stream; empty means the zero objective
	// (any emission order). Streaming-tier only.
	Objective map[string]string `json:"objective,omitempty"`
	// CommTimeoutSeconds bounds each inter-node collective.
	CommTimeoutSeconds float64 `json:"comm_timeout_seconds,omitempty"`
	// MemBudgetBytes caps resident intermediate-mode bytes per engine;
	// over budget, surviving sets are spilled to disk between rounds
	// (results stay bit-identical). The spill directory is operator
	// configuration (efmd -spill-dir) — deliberately not a wire option,
	// so remote clients cannot choose server filesystem paths.
	MemBudgetBytes int64 `json:"mem_budget_bytes,omitempty"`
}

// maxGroups and maxPartition bound the remaining request sizes that turn
// into allocations: every local group builds its own node mesh, and a
// partition of p reactions makes the scheduler prepare 2^p root classes.
// The paper partitions by 3+1 reactions and the benchmark runs 2 groups.
const (
	maxGroups    = 64
	maxPartition = 16
)

// Config translates the wire options into a library Config, refusing
// unknown option strings, sizes no legitimate request needs, and every
// value the distrib class frame cannot carry (a negative count, a count
// past int32, a deadline outside [0, parallel.MaxCommTimeout]): a
// coordinator that admitted one would have its workers refuse the frame
// and drop their links.
func (o RunOptions) Config() (elmocomp.Config, error) {
	for _, lim := range []struct {
		name   string
		v, max int64
	}{
		{"nodes", int64(o.Nodes), parallel.MaxNodes},
		{"workers", int64(o.Workers), parallel.MaxWorkers},
		{"groups", int64(o.Groups), maxGroups},
		{"nodes x groups", int64(o.Nodes) * int64(o.Groups), parallel.MaxNodes},
		{"qsub", int64(o.Qsub), maxPartition},
		{"partition length", int64(len(o.Partition)), maxPartition},
		{"max_modes", int64(o.MaxModes), math.MaxInt32},
		{"k", int64(o.K), math.MaxInt32},
		{"mem_budget_bytes", o.MemBudgetBytes, math.MaxInt64},
	} {
		if lim.v < 0 || lim.v > lim.max {
			return elmocomp.Config{}, fmt.Errorf("%s %d is outside [0, %d]", lim.name, lim.v, lim.max)
		}
	}
	if day := parallel.MaxCommTimeout.Seconds(); o.CommTimeoutSeconds < 0 || o.CommTimeoutSeconds > day {
		return elmocomp.Config{}, fmt.Errorf("comm_timeout_seconds %g is outside [0, %g]", o.CommTimeoutSeconds, day)
	}
	cfg := elmocomp.Config{
		Nodes:                  o.Nodes,
		Workers:                o.Workers,
		Qsub:                   o.Qsub,
		GroupConcurrency:       o.Groups,
		Partition:              o.Partition,
		KeepDuplicateReactions: o.KeepDuplicates,
		MaxIntermediateModes:   o.MaxModes,
		CommTimeout:            time.Duration(o.CommTimeoutSeconds * float64(time.Second)),
		MemBudgetBytes:         o.MemBudgetBytes,
	}
	switch strings.ToLower(o.Backend) {
	case "", "nullspace":
		cfg.Backend = elmocomp.NullspaceBackend
	case "revsearch":
		cfg.Backend = elmocomp.ReverseSearchBackend
	case "ondemand":
		cfg.Backend = elmocomp.OnDemandBackend
		cfg.MaxModes = o.K
		cfg.Objective = o.Objective
	default:
		return cfg, fmt.Errorf("unknown backend %q (nullspace | revsearch | ondemand)", o.Backend)
	}
	if cfg.Backend != elmocomp.OnDemandBackend && (o.K != 0 || len(o.Objective) != 0) {
		return cfg, fmt.Errorf("k and objective require backend \"ondemand\"")
	}
	switch strings.ToLower(o.Algorithm) {
	case "", "serial":
		cfg.Algorithm = elmocomp.Serial
	case "parallel":
		cfg.Algorithm = elmocomp.Parallel
	case "dnc":
		cfg.Algorithm = elmocomp.DivideAndConquer
	default:
		return cfg, fmt.Errorf("unknown algorithm %q (serial | parallel | dnc)", o.Algorithm)
	}
	return cfg, nil
}

// SubmitRequest is the POST /v1/jobs body: a built-in model name or an
// inline network in reaction-equation format, plus run options.
type SubmitRequest struct {
	Model   string     `json:"model,omitempty"`
	Network string     `json:"network,omitempty"`
	Options RunOptions `json:"options"`
}

// JobStatus is the API view of a job, returned by the submit, status
// and cancel endpoints.
type JobStatus struct {
	ID          string  `json:"id"`
	Key         string  `json:"key"`
	State       string  `json:"state"`
	Cached      bool    `json:"cached,omitempty"`
	Coalesced   int     `json:"coalesced,omitempty"`
	Error       string  `json:"error,omitempty"`
	Modes       int     `json:"modes,omitempty"`
	Fingerprint string  `json:"fingerprint,omitempty"`
	Elapsed     float64 `json:"elapsed_seconds"`
	Events      int     `json:"events"`
}

// statusOf converts a manager snapshot into the wire shape.
func statusOf(st jobs.Status) JobStatus {
	js := JobStatus{
		ID:        st.ID,
		Key:       st.Key,
		State:     st.State.String(),
		Cached:    st.Cached,
		Coalesced: st.Coalesced,
		Modes:     st.Modes,
		Events:    st.Events,
	}
	if st.Err != nil {
		js.Error = st.Err.Error()
	}
	if st.State == jobs.StateDone {
		js.Fingerprint = fmt.Sprintf("%016x", st.Fingerprint)
	}
	end := st.Finished
	if end.IsZero() {
		end = time.Now()
	}
	js.Elapsed = end.Sub(st.Created).Seconds()
	return js
}

// RunSummary is the machine-readable description of one completed
// enumeration — the body of GET /v1/jobs/{id}/result and of
// efmcalc -json.
type RunSummary struct {
	Network             string  `json:"network"`
	Metabolites         int     `json:"metabolites"`
	Reactions           int     `json:"reactions"`
	Reduction           string  `json:"reduction"`
	Modes               int     `json:"modes"`
	CandidateModes      int64   `json:"candidate_modes"`
	PairsVisited        int64   `json:"pairs_visited,omitempty"`     // serial and parallel double description only
	RankEliminations    int64   `json:"rank_eliminations,omitempty"` // likewise: rank tests decided by an elimination, run or its verdict read from the worker's verdict table; the zero pattern (live-row count or peel) decided the rest
	Fingerprint         string  `json:"fingerprint"`
	PeakNodeBytes       int64   `json:"peak_node_bytes"`
	PeakConcurrentBytes int64   `json:"peak_concurrent_bytes,omitempty"`
	CommBytes           int64   `json:"comm_bytes,omitempty"`
	CommWireBytes       int64   `json:"comm_wire_bytes,omitempty"`
	CommMessages        int64   `json:"comm_messages,omitempty"`
	ElapsedSeconds      float64 `json:"elapsed_seconds"`
	// The blocks below are the Result's own structs, not copies: every
	// field the measuring package declares is here. Iterations, Phases,
	// NodePhases and Subproblems are set by AddRows only; Store when a
	// memory budget made the engine spill surviving sets, Scheduler by the
	// divide-and-conquer driver, Revsearch and Ondemand by their backends.
	Iterations  []elmocomp.IterationStat  `json:"iterations,omitempty"`
	Phases      *elmocomp.PhaseSeconds    `json:"phases,omitempty"`
	NodePhases  []elmocomp.PhaseSeconds   `json:"node_phases,omitempty"`
	Subproblems []elmocomp.SubproblemStat `json:"subproblems,omitempty"`
	Store       *elmocomp.StoreStats      `json:"store,omitempty"`
	Scheduler   *elmocomp.SchedulerStats  `json:"scheduler,omitempty"`
	Revsearch   *elmocomp.RevSearchStats  `json:"revsearch,omitempty"`
	Ondemand    *elmocomp.OnDemandStats   `json:"ondemand,omitempty"`
}

// Summarize builds the shared summary from a finished run.
func Summarize(net *elmocomp.Network, res *elmocomp.Result, elapsed time.Duration) RunSummary {
	s := RunSummary{
		Network:             net.Name(),
		Metabolites:         net.NumInternalMetabolites(),
		Reactions:           net.NumReactions(),
		Reduction:           res.ReductionSummary(),
		Modes:               res.Len(),
		CandidateModes:      res.CandidateModes,
		PairsVisited:        res.PairsVisited,
		RankEliminations:    res.RankEliminations,
		Fingerprint:         fmt.Sprintf("%016x", res.Fingerprint()),
		PeakNodeBytes:       res.PeakNodeBytes,
		PeakConcurrentBytes: res.PeakConcurrentBytes,
		CommBytes:           res.CommBytes,
		CommWireBytes:       res.CommWireBytes,
		CommMessages:        res.CommMessages,
		ElapsedSeconds:      elapsed.Seconds(),
		Scheduler:           res.Scheduler,
		Revsearch:           res.RevSearch,
		Ondemand:            res.OnDemand,
	}
	if res.Store.Engaged() {
		s.Store = &res.Store
	}
	return s
}

// AddRows adds the blocks that grow with the run — one entry per
// iteration, node or class — to a summary of res: the columns of the
// paper's tables, which efmcalc -json prints. The efmd result leaves
// them out, so what it serves per job does not grow with the network.
func (s *RunSummary) AddRows(res *elmocomp.Result) {
	s.Iterations = res.Iterations
	s.Subproblems = res.Subproblems
	if res.Iterations != nil || res.Subproblems != nil {
		s.Phases = &res.Phases
	}
	if len(res.NodePhases) > 1 {
		s.NodePhases = res.NodePhases
	}
}

// ResultResponse is the body of GET /v1/jobs/{id}/result: the summary
// plus, when requested, each mode's support as reaction names.
type ResultResponse struct {
	Job      JobStatus  `json:"job"`
	Summary  RunSummary `json:"summary"`
	Supports [][]string `json:"supports,omitempty"`
}
