// Package parallel implements the combinatorial parallel Nullspace
// Algorithm (Algorithm 2 of the paper): distributed-memory data
// parallelism over the candidate-generation loop.
//
// Every compute node holds a replica of the current nullspace matrix.
// Each iteration, node i generates the i-th combinatorial slice of the
// positive×negative pairings (ParallelGenerateEFMCands), locally
// deduplicates and rank-tests its candidates, then the nodes exchange
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
	"elmocomp/internal/linalg"
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
// runs: the paper's largest machine is 256 nodes, efmbench's tables stop
// at 64, the benchmark uses 2, and no host has 1024 cores to give one
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
	// Fault, when non-nil, wraps the transport in the fault-injection
	// layer (cluster.WrapFaulty): deterministic crash points, message
	// drops and delivery delays for failure-path tests and chaos runs.
	Fault *cluster.FaultPlan
	// MemGauge, when non-nil, receives each node's resident mode-set
	// payload (the iteration's peak: current plus next matrix) after
	// every iteration, and a final zero when the node finishes. It is
	// called concurrently from every node goroutine; callers running
	// several groups at once (the divide-and-conquer scheduler) use it
	// for live cross-group memory accounting. It must be cheap — it sits
	// on the iteration critical path.
	MemGauge func(rank int, bytes int64)
}

// PhaseTimes aggregates the per-phase wall-clock seconds across
// iterations for one node — the paper's Table II row structure.
type PhaseTimes struct {
	GenCand     float64 // candidate generation
	RankTest    float64 // elementarity tests
	Communicate float64 // candidate exchange
	Merge       float64 // duplicate removal + matrix rebuild
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

// Run executes Algorithm 2 on the given prepared problem.
func Run(p *nullspace.Problem, opts Options) (*Result, error) {
	nodes := opts.Nodes
	if nodes <= 0 {
		nodes = 1
	}
	copts := cluster.Options{Timeout: opts.Timeout}
	var comms []cluster.Comm
	switch opts.Transport {
	case InProc:
		comms = cluster.NewInProcOpts(nodes, copts)
	case TCP:
		copts.SendRetries = 3
		var err error
		comms, err = cluster.NewTCPGroupOpts(nodes, copts)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("parallel: unknown transport %d", opts.Transport)
	}
	if opts.Fault != nil {
		comms = cluster.WrapFaulty(comms, *opts.Fault)
	}
	defer func() {
		for _, c := range comms {
			c.Close()
		}
	}()
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
		// Nodes also poll the channel at every row boundary (see
		// runNode): the group abort above unblocks pending collectives
		// immediately, the per-row poll bounds how long a node keeps
		// computing between collectives after a cancel.
		opts.Core.Cancel = opts.Cancel
	}

	last := opts.Core.LastRow
	if last <= 0 || last > p.Q() {
		last = p.Q()
	}

	results := make([]*nodeResult, nodes)
	errs := make([]error, nodes)
	var wg sync.WaitGroup
	for r := 0; r < nodes; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			res, err := runNode(p, opts.Core, comms[rank], last, opts.MemGauge)
			if err != nil {
				// Fail fast: trip the group abort so every peer pending
				// in a collective unblocks instead of wedging the run.
				comms[rank].Abort(fmt.Errorf("node %d: %w", rank, err))
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
			return nil, fmt.Errorf("parallel: node %d: %w", r, err)
		}
		if abortErr == nil {
			abortErr = fmt.Errorf("parallel: node %d: %w", r, err)
		}
	}
	if abortErr != nil {
		return nil, abortErr
	}

	// Replication invariant: all nodes must have produced identical
	// mode sets; adopt node 0's.
	if err := checkReplicas(results); err != nil {
		return nil, err
	}

	// Aggregate the per-iteration statistics: candidate counts and
	// generation/test CPU seconds sum over the nodes' pair slices;
	// merge-side numbers (duplicates, modes out, memory) are identical
	// on every replica and come from node 0.
	agg := append([]core.IterStats(nil), results[0].stats...)
	for r := 1; r < nodes; r++ {
		for i := range agg {
			s := results[r].stats[i]
			agg[i].Pairs += s.Pairs
			agg[i].Visited += s.Visited
			agg[i].Prefiltered += s.Prefiltered
			agg[i].TreeRejects += s.TreeRejects
			agg[i].Tested += s.Tested
			agg[i].Accepted += s.Accepted
			agg[i].GenSeconds += s.GenSeconds
			agg[i].TestSeconds += s.TestSeconds
		}
	}

	out := &Result{
		Result: &core.Result{
			Problem: p,
			Modes:   results[0].set,
			Stats:   agg,
		},
		Comm: cluster.StatsOf(comms),
	}
	for r := 0; r < nodes; r++ {
		out.NodePhases = append(out.NodePhases, results[r].phases)
		if b := results[r].peakBytes; b > out.PeakNodeBytes {
			out.PeakNodeBytes = b
		}
		// Store counters SUM over the replicas: every node holds (or
		// spills) its own copy of the surviving set, so the
		// totals describe group-wide bytes, not one node's.
		out.Result.Store.Add(results[r].store)
	}
	return out, nil
}

type nodeResult struct {
	set       *core.ModeSet
	stats     []core.IterStats
	phases    PhaseTimes
	peakBytes int64
	store     core.StoreStats
}

// checkReplicas enforces the replication invariant of Algorithm 2:
// every node must hold a bit-identical mode set. A length comparison
// alone lets same-size-but-diverged replicas through, so the canonical
// content fingerprint is compared too.
func checkReplicas(results []*nodeResult) error {
	h0 := results[0].set.Fingerprint()
	for r := 1; r < len(results); r++ {
		if results[r].set.Len() != results[0].set.Len() {
			return fmt.Errorf("parallel: replica divergence: node %d holds %d modes, node 0 holds %d",
				r, results[r].set.Len(), results[0].set.Len())
		}
		if h := results[r].set.Fingerprint(); h != h0 {
			return fmt.Errorf("parallel: replica divergence: node %d mode-set fingerprint %016x, node 0's %016x",
				r, h, h0)
		}
	}
	return nil
}

// runNode is the per-node main loop of Algorithm 2. Within the node,
// candidate generation and the sorted merge run on a shared-memory worker
// pool (core.Options.Workers per node) — the hybrid distributed×multicore
// decomposition. Phase attribution is unchanged: per-worker gen/test CPU
// seconds sum into the node's GenCand/RankTest rows, the parallel merge
// wall time lands in Merge, so the Table II reporting stays honest.
func runNode(p *nullspace.Problem, copts core.Options, comm cluster.Comm, last int, gauge func(int, int64)) (*nodeResult, error) {
	nr := &nodeResult{}
	if gauge != nil {
		defer gauge(comm.Rank(), 0)
	}
	pool := core.NewPool(p, copts.Workers)
	rank, size := comm.Rank(), comm.Size()
	var local *core.ModeSet

	// Each node runs its own between-rounds mode store: under a memory
	// budget the replicated surviving set is spilled while the node
	// waits at the next collective, instead of staying flat on every
	// replica at once. The deferred Release covers every abort, fault
	// and cancel path, so spill files never outlive the run.
	store := core.NewStoreManager(copts)
	defer store.Release()
	if err := store.Hold(core.InitialModeSet(p, linalg.DefaultTol)); err != nil {
		return nil, err
	}

	for row := p.D; row < last; row++ {
		if copts.Cancel != nil {
			select {
			case <-copts.Cancel:
				return nil, fmt.Errorf("%w at row %d", core.ErrCanceled, row)
			default:
			}
		}
		set, err := store.Materialize()
		if err != nil {
			return nil, err
		}
		it := core.BeginRow(p, set, row, copts)

		// ParallelGenerateEFMCands: this node's combinatorial slice of
		// the pair space (contiguous block decomposition), sharded once
		// more across the node's workers.
		pairs := it.Pairs()
		from := pairs * int64(rank) / int64(size)
		to := pairs * int64(rank+1) / int64(size)
		var genStats core.IterStats
		workerSets := pool.GenerateRange(it, from, to, &genStats)
		nr.phases.GenCand += genStats.GenSeconds
		nr.phases.RankTest += genStats.TestSeconds

		// Concatenate the per-worker sets — in chunk order, preserving
		// the node slice's generation order — into the wire payload.
		local = it.ResetCandidateSet(local)
		for _, wset := range workerSets {
			local.AppendSet(wset)
		}

		// Communicate: allgather the surviving local candidates.
		commTimer := newTimer()
		payloads, err := comm.Allgather(local.Encode())
		if err != nil {
			return nil, err
		}
		nr.phases.Communicate += commTimer.seconds()

		// Merge: decode every node's candidates and rebuild the
		// replicated next matrix (global duplicate removal inside the
		// pool's parallel sorted merge).
		candSets := make([]*core.ModeSet, len(payloads))
		for i, pl := range payloads {
			if i == rank {
				candSets[i] = local
				continue
			}
			cs, err := core.DecodeModeSet(pl)
			if err != nil {
				return nil, err
			}
			candSets[i] = cs
		}
		it.MergeStats(&genStats)
		next, err := pool.AssembleNext(it, candSets)
		if err != nil {
			return nil, err
		}
		nr.phases.Merge += it.Stats.MergeSeconds
		if b := it.Stats.PeakBytes; b > nr.peakBytes {
			nr.peakBytes = b
		}
		nr.stats = append(nr.stats, it.Stats)
		if copts.Trace != nil && rank == 0 {
			copts.Trace(it.Stats, next)
		}
		if err := store.Hold(next); err != nil {
			return nil, err
		}
		if gauge != nil {
			gauge(rank, it.Stats.PeakBytes)
			if store.Active() {
				// Second sample: the post-Hold resident footprint. With no
				// budget the store is a pass-through and this sample is
				// skipped, keeping the gauge stream exactly as before.
				gauge(rank, store.ResidentBytes())
			}
		}
	}
	final, err := store.Materialize()
	if err != nil {
		return nil, err
	}
	nr.set = final
	nr.store = store.Stats()
	return nr, nil
}
