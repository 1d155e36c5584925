// Package parallel implements the combinatorial parallel Nullspace
// Algorithm (Algorithm 2 of the paper): distributed-memory data
// parallelism over the candidate-generation loop.
//
// Every compute node holds a replica of the current nullspace matrix.
// Each iteration, node i generates its share of the positive×negative
// pairings (ParallelGenerateEFMCands) — the chunks i, i+Nodes, i+2·Nodes,
// … of one cut of the pair range, dealt round-robin so that the shares
// cost alike — and rank-tests its candidates, then the nodes exchange
// surviving candidates (Communicate&Merge) and each rebuilds the —
// identical — next matrix. The per-phase timings this package reports
// (gen cand / rank test / communicate / merge) are the rows of the
// paper's Table II; communication volume is measured in bytes and
// messages by the cluster substrate.
package parallel

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"elmocomp/internal/cluster"
	"elmocomp/internal/core"
	"elmocomp/internal/nullspace"
)

// Transport selects the message-passing fabric connecting the simulated
// compute nodes.
type Transport int

const (
	// InProc connects nodes with buffered channels (default).
	InProc Transport = iota
	// TCP connects nodes with loopback TCP sockets.
	TCP
)

// MaxNodes and MaxWorkers bound the node and worker counts the service
// boundaries accept from outside the process (the HTTP API's RunOptions,
// a distrib class frame). Both become allocation sizes — Nodes² mesh
// links per group, one rank-test workspace per worker — so an unchecked
// request is a memory bomb. The bounds sit above anything the repository
// runs: the paper's largest machine is 256 nodes, its Table II stops at
// 64, the benchmark uses 2, and no host has 1024 cores to give one
// engine.
//
// MaxCommTimeout bounds the collective deadline at the same boundaries.
// It crosses the distrib link as float64 seconds; below a day the
// conversion to and from time.Duration is exact to the nanosecond, and a
// longer deadline on one class's collectives is no deadline at all.
const (
	MaxNodes       = 512
	MaxWorkers     = 1024
	MaxCommTimeout = 24 * time.Hour
)

// Options configure a parallel run.
type Options struct {
	Core      core.Options
	Nodes     int // number of compute nodes (default 1)
	Transport Transport
	// Timeout bounds every collective communication step (the
	// Communicate&Merge allgather). When any node's collective stalls
	// longer — a lost peer, a wedged transport — the whole group aborts
	// and Run returns an error matching cluster.ErrTimeout instead of
	// hanging. 0 means no deadline.
	Timeout time.Duration
	// Cancel, when non-nil, aborts the run as soon as it is closed; Run
	// then returns an error matching cluster.ErrCanceled.
	Cancel <-chan struct{}
	// Fault, when non-nil, is the group's cluster.Options.Fault: every
	// node's endpoint injects the plan's deterministic crash points,
	// message drops and delivery delays, on either transport, for
	// failure-path tests and chaos runs. One node builds no group and
	// reads no plan.
	Fault *cluster.FaultPlan
	// MemGauge, when non-nil, receives every change of each node's
	// resident mode-set payload as a signed delta (core.RunNode: the
	// iteration's peak, current plus next matrix, after every iteration,
	// and the release of what is still held when the node returns), so
	// a running sum of the deltas is the group's residency right now and
	// every run's deltas sum to zero. It is called concurrently from
	// every node goroutine; the divide-and-conquer scheduler hands every
	// local group the same gauge, one running total across groups. It
	// must be cheap — it sits on the iteration critical path.
	MemGauge func(delta int64)
}

// PhaseTimes aggregates the per-phase wall-clock seconds across
// iterations for one node — the paper's Table II row structure.
type PhaseTimes struct {
	GenCand     float64 `json:"gen_seconds"`   // candidate generation
	RankTest    float64 `json:"rank_seconds"`  // elementarity tests
	Communicate float64 `json:"comm_seconds"`  // candidate exchange
	Merge       float64 `json:"merge_seconds"` // duplicate removal + matrix rebuild
}

// Total returns the summed phase time.
func (p PhaseTimes) Total() float64 {
	return p.GenCand + p.RankTest + p.Communicate + p.Merge
}

// Result is the outcome of a distributed run.
type Result struct {
	// Serial holds the algorithm-level results (final modes from node 0,
	// aggregated iteration statistics).
	*core.Result
	// NodePhases holds each node's phase timing totals.
	NodePhases []PhaseTimes
	// Comm aggregates the group's traffic.
	Comm cluster.GroupStats
	// PeakNodeBytes is the largest mode-set payload any single node held
	// (the replicated-matrix memory bound the paper's §IV-B discusses).
	PeakNodeBytes int64
}

// MaxPhases returns the element-wise maximum over nodes (the critical
// path).
func (r *Result) MaxPhases() PhaseTimes {
	var m PhaseTimes
	for _, p := range r.NodePhases {
		if p.GenCand > m.GenCand {
			m.GenCand = p.GenCand
		}
		if p.RankTest > m.RankTest {
			m.RankTest = p.RankTest
		}
		if p.Communicate > m.Communicate {
			m.Communicate = p.Communicate
		}
		if p.Merge > m.Merge {
			m.Merge = p.Merge
		}
	}
	return m
}

// phasesOf totals one node's phase seconds: the engine's per-row
// generation, rank-test and merge seconds plus the node's Communicate
// clock.
func phasesOf(stats []core.IterStats, communicate float64) PhaseTimes {
	ph := PhaseTimes{Communicate: communicate}
	for _, s := range stats {
		ph.GenCand += s.GenSeconds
		ph.RankTest += s.TestSeconds
		ph.Merge += s.MergeSeconds
	}
	return ph
}

// Run executes Algorithm 2 on the given prepared problem. Every node runs
// core.RunNode, the one row loop; what this function adds is the group:
// the communicator, the candidate exchange over it, fail-fast error
// propagation and the replication check. A group of one has none of
// that — it is Algorithm 1 — so Nodes <= 1 runs the loop on the caller's
// goroutine with no exchange and returns its result.
func Run(p *nullspace.Problem, opts Options) (*Result, error) {
	nodes := max(opts.Nodes, 1)
	if opts.Cancel != nil {
		// Every node polls the channel at each row boundary; a group
		// also trips its abort latch (runGroup), which unblocks pending
		// collectives at once.
		opts.Core.Cancel = opts.Cancel
	}
	results := make([]*core.Result, nodes)
	commSeconds := make([]float64, nodes)
	out := &Result{}
	if nodes == 1 {
		res, err := core.RunNode(p, opts.Core, 0, 1, nil, opts.MemGauge)
		if err != nil {
			return nil, err
		}
		results[0] = res
	} else {
		var err error
		if out.Comm, err = runGroup(p, opts, results, commSeconds); err != nil {
			return nil, err
		}
	}

	// Node 0's result becomes the group's: the modes and the merge-side
	// numbers (duplicates, modes out, memory) are identical on every
	// replica. Candidate counts and generation/test CPU seconds sum over
	// the nodes' pair slices, and so do the store counters: every node
	// holds (or spills) its own copy of the surviving set, so the totals
	// describe group-wide bytes, not one node's. A node's phases are read
	// before its statistics are summed into.
	out.Result = results[0]
	for r, res := range results {
		out.NodePhases = append(out.NodePhases, phasesOf(res.Stats, commSeconds[r]))
		out.PeakNodeBytes = max(out.PeakNodeBytes, res.PeakBytes())
		if r > 0 {
			out.Store.Add(res.Store)
			for i := range res.Stats {
				core.AddGenStats(&out.Stats[i], &res.Stats[i])
			}
		}
	}
	return out, nil
}

// runGroup runs a group of several nodes to completion, one goroutine
// per node, filling results and each node's Communicate seconds, and
// returns the group's traffic.
func runGroup(p *nullspace.Problem, opts Options, results []*core.Result, commSeconds []float64) (cluster.GroupStats, error) {
	nodes := len(results)
	copts := cluster.Options{Timeout: opts.Timeout, Fault: opts.Fault}
	var comms []cluster.Comm
	switch opts.Transport {
	case InProc:
		comms = cluster.NewInProc(nodes, copts)
	case TCP:
		var err error
		comms, err = cluster.NewTCPGroupOpts(nodes, copts)
		if err != nil {
			return cluster.GroupStats{}, err
		}
	default:
		return cluster.GroupStats{}, fmt.Errorf("parallel: unknown transport %d", opts.Transport)
	}
	defer comms[0].Close() // closes the whole group
	if opts.Cancel != nil {
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			select {
			case <-opts.Cancel:
				comms[0].Abort(cluster.ErrCanceled)
			case <-stop:
			}
		}()
	}

	errs := make([]error, nodes)
	var wg sync.WaitGroup
	for r := 0; r < nodes; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			comm := comms[rank]
			// Communicate: allgather the node's chunk runs and lay every
			// node's down in chunk order.
			exchange := func(mine *core.Deal) ([]*core.ModeSet, error) {
				t0 := time.Now()
				defer func() { commSeconds[rank] += time.Since(t0).Seconds() }()
				payloads, err := comm.Allgather(mine.Encode())
				if err != nil {
					return nil, err
				}
				return mine.Gather(payloads)
			}
			res, err := core.RunNode(p, opts.Core, rank, nodes, exchange, opts.MemGauge)
			if err != nil {
				// Fail fast: trip the group abort so every peer pending
				// in a collective unblocks instead of wedging the run.
				comm.Abort(fmt.Errorf("node %d: %w", rank, err))
			}
			results[rank], errs[rank] = res, err
		}(r)
	}
	wg.Wait()
	// Prefer a root-cause error (the node that actually failed) over the
	// ErrAborted cascade its abort triggered on the other nodes.
	var abortErr error
	for r, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, cluster.ErrAborted) {
			return cluster.GroupStats{}, fmt.Errorf("parallel: node %d: %w", r, err)
		}
		if abortErr == nil {
			abortErr = fmt.Errorf("parallel: node %d: %w", r, err)
		}
	}
	if abortErr != nil {
		return cluster.GroupStats{}, abortErr
	}
	// Replication invariant: all nodes must have produced identical
	// mode sets.
	if err := checkReplicas(results); err != nil {
		return cluster.GroupStats{}, err
	}
	return cluster.StatsOf(comms), nil
}

// checkReplicas enforces the replication invariant of Algorithm 2:
// every node must hold a bit-identical mode set. A length comparison
// alone lets same-size-but-diverged replicas through, so the canonical
// content fingerprint is compared too.
func checkReplicas(results []*core.Result) error {
	h0 := results[0].Modes.Fingerprint()
	for r := 1; r < len(results); r++ {
		if results[r].Modes.Len() != results[0].Modes.Len() {
			return fmt.Errorf("parallel: replica divergence: node %d holds %d modes, node 0 holds %d",
				r, results[r].Modes.Len(), results[0].Modes.Len())
		}
		if h := results[r].Modes.Fingerprint(); h != h0 {
			return fmt.Errorf("parallel: replica divergence: node %d mode-set fingerprint %016x, node 0's %016x",
				r, h, h0)
		}
	}
	return nil
}
