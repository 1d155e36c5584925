// Package elmocomp computes elementary flux modes (EFMs) of metabolic
// networks with the Nullspace Algorithm and its distributed-memory
// parallelizations, reproducing "Divide-and-conquer approach to the
// parallel computation of elementary flux modes in metabolic networks"
// (Jevremovic, Boley, Sosa; IEEE IPDPS 2011).
//
// The package offers three drivers over one engine:
//
//   - Serial: the sequential Nullspace Algorithm (paper Algorithm 1),
//     which is Parallel on one node;
//   - Parallel: the combinatorial parallel algorithm with replicated
//     state and a Communicate&Merge candidate exchange over a simulated
//     compute cluster (Algorithm 2);
//   - DivideAndConquer: the combined algorithm, partitioning the EFM set
//     into disjoint classes over a subset of reactions and solving each
//     class independently with the parallel algorithm (Algorithm 3).
//
// Quickstart:
//
//	net, _ := elmocomp.Builtin("toy")
//	res, _ := elmocomp.ComputeEFMs(net, elmocomp.Config{})
//	for i := 0; i < res.Len(); i++ {
//	    fmt.Println(res.SupportNames(i))
//	}
package elmocomp

import (
	"errors"
	"fmt"
	"io"
	"math/big"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"elmocomp/internal/bitset"
	"elmocomp/internal/cluster"
	"elmocomp/internal/core"
	"elmocomp/internal/distrib"
	"elmocomp/internal/dnc"
	"elmocomp/internal/model"
	"elmocomp/internal/nullspace"
	"elmocomp/internal/ondemand"
	"elmocomp/internal/parallel"
	"elmocomp/internal/ratmat"
	"elmocomp/internal/reduce"
	"elmocomp/internal/revsearch"
)

// Failure sentinels of the distributed drivers, re-exported so callers
// can classify errors with errors.Is without reaching into internal
// packages.
var (
	// ErrCommTimeout matches errors from runs whose Config.CommTimeout
	// expired: a node's collective communication step stalled past the
	// deadline and the run was aborted instead of hanging.
	ErrCommTimeout = cluster.ErrTimeout
	// ErrCommAborted matches the fail-fast teardown errors peers report
	// when any node fails and the communicator group is aborted.
	ErrCommAborted = cluster.ErrAborted
)

// Network is a metabolic network: reactions with exact stoichiometry and
// reversibility flags over internal and external metabolites.
type Network struct {
	inner *model.Network
}

// ParseNetwork reads a network in the reaction-equation text format:
//
//	# comment
//	name demo
//	external BIO
//	R1 : GLCext + PEP => G6P + PYR
//	R2 : G6P <=> F6P
//
// Metabolites suffixed "ext" (or listed in an "external" directive) are
// external; "=>" marks irreversible and "<=>" reversible reactions.
func ParseNetwork(r io.Reader) (*Network, error) {
	n, err := model.Parse(r)
	if err != nil {
		return nil, err
	}
	return &Network{inner: n}, nil
}

// ParseNetworkString parses a network from a string.
func ParseNetworkString(src string) (*Network, error) {
	n, err := model.ParseString(src)
	if err != nil {
		return nil, err
	}
	return &Network{inner: n}, nil
}

// Builtin returns one of the bundled networks: "toy" (the paper's
// Figure 1 example), "yeast1" (S. cerevisiae Network I, 62×78), or
// "yeast2" (Network II, 63×83).
func Builtin(name string) (*Network, error) {
	n := model.Builtin(name)
	if n == nil {
		return nil, fmt.Errorf("elmocomp: unknown built-in network %q (have %v)", name, model.BuiltinNames())
	}
	return &Network{inner: n}, nil
}

// BuiltinNames lists the bundled network names.
func BuiltinNames() []string { return model.BuiltinNames() }

// Name returns the network's name.
func (n *Network) Name() string { return n.inner.Name }

// NumReactions returns the reaction count.
func (n *Network) NumReactions() int { return len(n.inner.Reactions) }

// NumInternalMetabolites returns the internal metabolite count.
func (n *Network) NumInternalMetabolites() int { return len(n.inner.InternalMetabolites()) }

// ReactionNames returns the reaction names in declaration order.
func (n *Network) ReactionNames() []string { return n.inner.ReactionNames() }

// String renders the network in the parser's input format.
func (n *Network) String() string { return n.inner.String() }

// Validate returns human-readable structural warnings (dead-end
// metabolites and the like). An empty slice means no findings.
func (n *Network) Validate() []string { return n.inner.Validate() }

// Algorithm selects the driver.
type Algorithm int

const (
	// Serial runs Algorithm 1: Parallel on one node, whatever
	// Config.Nodes says.
	Serial Algorithm = iota
	// Parallel runs Algorithm 2 on Config.Nodes simulated compute nodes.
	Parallel
	// DivideAndConquer runs Algorithm 3: 2^Qsub independent
	// subproblems, each solved with Algorithm 2.
	DivideAndConquer
)

// Backend selects the enumeration algorithm family. The two families
// share nothing past the exact-rational linear algebra and the
// canonical support representation, and compute bitwise-identical
// results (fingerprint equality is CI-enforced on the differential
// grid), which is why Backend is normalized out of RequestKey: it is an
// execution-shape option, like Workers or the memory budget.
type Backend int

const (
	// NullspaceBackend is the double-description family: the paper's
	// Nullspace Algorithm with its algebraic rank test as the one
	// elementarity verdict, driven by Config.Algorithm (serial, cluster
	// parallel, divide-and-conquer, distributed). The default.
	NullspaceBackend Backend = iota
	// ReverseSearchBackend enumerates by lexicographic reverse search
	// (the lrs/mplrs family) on the split-reversible cone: depth-first
	// over the simplex-tree of the normalized polytope, O(tree depth)
	// memory per worker, subtree-parallel via Config.Workers.
	// Config.Algorithm, Nodes, Qsub, GroupConcurrency, Partition and
	// the memory budget do not apply and are ignored;
	// MaxIntermediateModes is rejected (reverse search has no
	// intermediate mode matrices to budget — every run is exhaustive,
	// which is what keeps the backend result-neutral).
	ReverseSearchBackend
	// OnDemandBackend is the interactive tier: exact-rational ranked
	// generation (package ondemand) streaming modes one at a time in
	// nondecreasing Config.Objective order, stopping after
	// Config.MaxModes modes. First-result latency is one LP solve, not
	// a full enumeration. Run to exhaustion (MaxModes == 0) the emitted
	// set is fingerprint-identical to the batch backends — CI-enforced
	// on the differential grid — but a k-limited run's RESULT depends
	// on k and the objective, which is why those two fields (alone
	// among streaming options) enter RequestKey. The nullspace driver
	// options are ignored like under ReverseSearchBackend;
	// MaxIntermediateModes is likewise rejected.
	OnDemandBackend
)

// Config controls a computation. The zero value runs the serial
// algorithm with the paper's defaults. Elementarity is always decided by
// the paper's algebraic rank test at one fixed zero tolerance, reversible
// reactions stay unsplit and the kernel rows are always ordered by its
// two heuristics (§II-C); none of that is configurable.
type Config struct {
	// Backend selects the enumeration algorithm family (default: the
	// double-description Nullspace drivers). See Backend.
	Backend Backend
	// Algorithm selects the driver within NullspaceBackend.
	Algorithm Algorithm
	// Nodes is the simulated compute-node count for Parallel and
	// DivideAndConquer (default 1).
	Nodes int
	// Workers is the shared-memory worker count used for candidate
	// generation and merging — per engine for Serial, per simulated node
	// for Parallel and DivideAndConquer. 0 means GOMAXPROCS; 1 runs
	// single-threaded. The computed modes are bit-identical for every
	// worker count.
	Workers int
	// Qsub is the divide-and-conquer partition size (default 2).
	Qsub int
	// GroupConcurrency is the number of local node groups concurrently
	// pulling divide-and-conquer classes from a work queue whose root
	// classes leave dearest first: most must-be-non-zero partition
	// reactions, then class ID descending. 0 means one group (under
	// ComputeEFMsDistributed: no local group, every class runs on the
	// workers). Results are byte-identical at every setting.
	// DivideAndConquer only; ignored by the other drivers.
	GroupConcurrency int
	// Partition names the partition reactions explicitly (overrides
	// Qsub). Reactions must survive network reduction and be linearly
	// independent columns of the reduced stoichiometry: two names that
	// reduce to one column, or a dependent set such as a cycle, are
	// refused with an error naming them (CheckPartition, before a run).
	Partition []string
	// KeepDuplicateReactions disables the duplicate-column merge during
	// reduction (see package reduce for the semantics).
	KeepDuplicateReactions bool
	// MaxIntermediateModes aborts (Serial/Parallel) or triggers adaptive
	// re-splitting (DivideAndConquer) when an intermediate mode matrix
	// exceeds this column count. 0 means unlimited.
	MaxIntermediateModes int
	// MaxModes stops an OnDemandBackend stream after this many emitted
	// modes; 0 enumerates to exhaustion. Unlike the execution-shape
	// options, MaxModes shapes the RESULT (a k-limited run returns the
	// k best modes, not the full set), so it is part of RequestKey.
	// Rejected by the batch backends.
	MaxModes int
	// Objective assigns exact-rational ranking weights to reduced
	// reactions by name (values parsed as big.Rat strings, e.g. "1",
	// "-1/2"): OnDemandBackend streams modes in nondecreasing order of
	// the weighted normalized flux sum. Unlisted reactions weigh zero;
	// a nil map streams in a deterministic unranked order. With
	// MaxModes > 0 the objective selects WHICH modes are returned, so
	// it enters RequestKey alongside k. Rejected by the batch backends.
	Objective map[string]string
	// OnMode, when set, receives every streamed mode the moment the
	// on-demand generator emits it, before the run completes — the hook
	// the job service uses to forward modes onto its event channel.
	// Called synchronously from the enumeration goroutine.
	// OnDemandBackend only; rejected by the batch backends.
	OnMode func(ModeEvent)
	// MemBudgetBytes bounds the resident bytes each engine keeps between
	// iteration rounds: a surviving mode set whose flat size is more
	// than half the budget is spilled to a temp file and read back
	// before the next round. Under DivideAndConquer an over-budget class
	// is additionally re-split (like a mode-count overflow) while
	// re-split depth remains. 0 means unlimited (the store is bypassed
	// entirely). The computed modes are bit-identical at every setting.
	MemBudgetBytes int64
	// SpillDir is the directory for spill files (default: the OS temp
	// directory). Operator configuration — servers must not let remote
	// clients choose this path.
	SpillDir string
	// OverTCP routes inter-node traffic through loopback TCP sockets
	// instead of in-process channels.
	OverTCP bool
	// CommTimeout bounds every inter-node collective of the Parallel
	// and DivideAndConquer drivers. When a node's communication step
	// stalls longer — a lost peer, a wedged transport — the run aborts
	// with an error matching ErrCommTimeout instead of hanging. 0 means
	// no deadline.
	CommTimeout time.Duration
	// Progress, when set, receives a line of status per completed
	// iteration or subproblem.
	Progress func(msg string)
}

// IterationStat mirrors one iteration of the algorithm.
type IterationStat struct {
	Reaction       string `json:"reaction"` // reduced reaction name whose row was processed
	Reversible     bool   `json:"reversible"`
	Pos            int    `json:"pos"`
	Neg            int    `json:"neg"`
	Zero           int    `json:"zero"`
	CandidateModes int64  `json:"candidate_modes"` // |pos|·|neg| combinations generated
	Visited        int64  `json:"visited"`         // of those, pairs probed one by one (the generation tree rejects the rest by the subtree)
	Prefiltered    int64  `json:"prefiltered"`     // rejected by the support-size pre-test
	Tested         int64  `json:"tested"`          // rank tests run
	Eliminated     int64  `json:"eliminated"`      // of those, tests decided by an elimination, run or its verdict read from the worker's verdict table (the pattern decided the rest: live-row count or peel)
	FullPasses     int64  `json:"full_passes"`     // pre-test survivors whose support the full value pass built, the shared rows leaving it undecided
	Accepted       int64  `json:"accepted"`
	Duplicates     int64  `json:"duplicates"`
	ModesOut       int    `json:"modes_out"`
	// GenSeconds and RankSeconds are the row's candidate-generation and
	// rank-test CPU seconds, summed over workers and nodes.
	GenSeconds  float64 `json:"gen_seconds"`
	RankSeconds float64 `json:"rank_seconds"`
}

// PhaseSeconds is the per-phase timing of a distributed run (Table II's
// row structure), as the parallel driver measures it.
type PhaseSeconds = parallel.PhaseTimes

// SubproblemStat describes one divide-and-conquer class.
type SubproblemStat struct {
	ID             uint64 `json:"id"`
	Pattern        string `json:"pattern"` // e.g. "R89r=0,R74r!=0"
	EFMs           int    `json:"efms"`
	CandidateModes int64  `json:"candidate_modes"`
	Skipped        bool   `json:"skipped,omitempty"`
	ReSplit        bool   `json:"re_split,omitempty"`
	// MemReSplit marks a re-split triggered by the memory budget rather
	// than the intermediate mode count.
	MemReSplit bool `json:"mem_re_split,omitempty"`
	// Unresolved marks a class that hit MaxIntermediateModes at the
	// re-split depth limit; its EFMs are missing from the Result (the
	// budgeted Table IV exploration mode).
	Unresolved bool         `json:"unresolved,omitempty"`
	Seconds    PhaseSeconds `json:"seconds"`
}

// SchedulerStats holds the counters of a divide-and-conquer run's class
// queue, as the scheduler keeps them. Counter totals are deterministic
// for a given problem and budget; the queue/active peaks and the order
// of Classes are scheduling diagnostics.
type SchedulerStats = dnc.SchedStats

// StoreStats holds the between-rounds mode store's spill activity
// (Config.MemBudgetBytes; all zero when the store was bypassed), as the
// engine keeps it. Counters are deterministic for a given problem and
// configuration, and sum over nodes and subproblems.
type StoreStats = core.StoreStats

// Result holds the computed elementary flux modes and the run's
// statistics. Supports are stored compactly; accessors expand on demand.
type Result struct {
	network *model.Network
	red     *reduce.Reduced
	// supports over reduced columns, sorted and pairwise distinct.
	supports []bitset.Set

	// CandidateModes is the total number of generated intermediate
	// candidate modes (the paper's headline cost metric).
	CandidateModes int64
	// PairsVisited is how many of the double-description engine's
	// candidate pairs were probed one by one, summed over Iterations
	// (Serial/Parallel only); the rest were support pre-test rejections
	// the generation tree counted by the subtree.
	PairsVisited int64
	// RankEliminations is how many of the engine's rank tests were
	// decided by a Gaussian elimination, run or its verdict read from the
	// worker's verdict table, summed over Iterations; the rest were
	// decided by the block's exact zero pattern: counting the rows an
	// elimination could pivot on, or peeling its free columns and
	// singleton pivots.
	RankEliminations int64
	// Iterations holds per-iteration statistics (Serial/Parallel only).
	Iterations []IterationStat
	// Phases holds the critical-path phase times (Parallel/DnC).
	Phases PhaseSeconds
	// NodePhases holds each node's own phase times, indexed by rank
	// (Serial/Parallel only): a node that waits for a slower one shows it
	// as Communicate seconds the slower one does not have.
	NodePhases []PhaseSeconds
	// Subproblems describes the divide-and-conquer classes (DnC only).
	Subproblems []SubproblemStat
	// CommBytes / CommMessages total the inter-node traffic (payload
	// bytes); CommWireBytes additionally counts transport framing (on
	// TCP, a 4-byte header per message — equal to CommBytes in-process).
	CommBytes, CommWireBytes, CommMessages int64
	// PeakNodeBytes is the largest mode-matrix payload held by any
	// single node at any time.
	PeakNodeBytes int64
	// Scheduler is the divide-and-conquer scheduler's own counter struct
	// (nil for every other algorithm and backend); its MemResplits is
	// the count of re-splits the memory budget triggered.
	Scheduler *SchedulerStats
	// PeakConcurrentBytes is the largest mode-matrix payload resident
	// across all concurrently enumerating local node groups at any
	// instant (DivideAndConquer only; 0 otherwise).
	PeakConcurrentBytes int64
	// Store is the engine's between-rounds store counters, summed over
	// nodes and subproblems (zero when Config.MemBudgetBytes was unset).
	Store StoreStats
	// RevSearch is the reverse-search run's own counter struct
	// (Config.Backend == ReverseSearchBackend only; nil otherwise).
	RevSearch *RevSearchStats
	// OnDemand is the on-demand generator's own counter struct plus the
	// emitted objective values (Config.Backend == OnDemandBackend only;
	// nil otherwise). When set, the Result's supports are in EMISSION
	// (rank) order, not canonical order.
	OnDemand *OnDemandStats
}

// ModeEvent is one streamed elementary flux mode, delivered through
// Config.OnMode as it is found.
type ModeEvent struct {
	// Rank is the 1-based position in the ranked stream.
	Rank int
	// Support lists the original reaction names carrying flux, sorted:
	// Result.SupportNames of the same mode.
	Support []string
	// Value is the exact objective value of the mode's normalized
	// vertex, as a rational string ("-3/20"); "0" under a nil
	// objective.
	Value string
}

// OnDemandStats is the on-demand generator's counters (Bases is
// mirrored into Result.CandidateModes) plus what only this layer knows.
type OnDemandStats struct {
	ondemand.Stats
	// Values holds the exact objective value of each emitted mode in
	// stream order, as rational strings. Per-mode like the supports, so
	// not part of the JSON summary.
	Values []string `json:"-"`
}

// RevSearchStats holds a reverse-search run's counters, as the backend
// keeps them (Bases is mirrored into Result.CandidateModes, PeakBytes
// into PeakNodeBytes). Bases, Vertices and MaxDepth are deterministic
// for a given network; Jobs for a given subtree budget.
type RevSearchStats = revsearch.Stats

// Fingerprint folds the result's canonical support list into a 64-bit
// hash that is comparable ACROSS drivers AND backends: serial, parallel,
// divide-and-conquer, reverse-search and exhaustive on-demand runs of
// the same network and reduction settings must produce the same
// fingerprint. The differential test harness keys on this. On-demand
// results hold their supports in emission (rank) order rather than
// canonical order, so the fingerprint is computed order-insensitively:
// already-sorted lists (every batch backend) hash directly, unsorted
// ones hash a sorted copy.
func (r *Result) Fingerprint() uint64 {
	for i := 1; i < len(r.supports); i++ {
		if r.supports[i-1].Compare(r.supports[i]) > 0 {
			sorted := append([]bitset.Set(nil), r.supports...)
			sort.Slice(sorted, func(a, b int) bool { return sorted[a].Compare(sorted[b]) < 0 })
			return core.SupportsFingerprint(sorted)
		}
	}
	return core.SupportsFingerprint(r.supports)
}

// Truncate drops all modes past the first k, in the Result's stored
// order. For on-demand results that order is the emission ranking, so
// Truncate(k') of a k-mode stream is exactly the stream a MaxModes=k'
// run would have produced — the property that lets the job service serve
// a shorter request from its family's cached stream. No-op when k is
// negative or at least Len().
func (r *Result) Truncate(k int) {
	if k < 0 || k >= len(r.supports) {
		return
	}
	r.supports = r.supports[:k]
	if r.OnDemand != nil {
		r.OnDemand.Emitted = k
		r.OnDemand.Exhausted = false
		if len(r.OnDemand.Values) > k {
			r.OnDemand.Values = r.OnDemand.Values[:k]
		}
	}
}

// Len returns the number of elementary flux modes.
func (r *Result) Len() int { return len(r.supports) }

// ReducedSupport returns mode i's support as indices into the reduced
// network's columns.
func (r *Result) ReducedSupport(i int) []int {
	return r.supports[i].Indices(nil)
}

// SupportNames returns the original reaction names carrying non-zero
// flux in mode i, sorted: the members of its support columns, so
// reactions merged during reduction (enzyme subsets) all appear.
func (r *Result) SupportNames(i int) []string {
	return r.red.SupportNames(r.supports[i].Indices(nil))
}

// Flux reconstructs mode i's exact flux distribution over the original
// reactions (core.ExactFlux over the reduced network, then expansion),
// scaled so the smallest non-zero magnitude is 1. Reversible reactions
// may carry negative flux. It fails when the stored support is not the
// mode's true support.
func (r *Result) Flux(i int) (map[string]*big.Rat, error) {
	support := r.supports[i].Indices(nil)
	vals, err := core.ExactFlux(r.red.N, r.red.Reversibilities(), support)
	if err != nil {
		return nil, fmt.Errorf("elmocomp: mode %d: %w", i, err)
	}
	// Scale: smallest non-zero magnitude becomes 1.
	minAbs := new(big.Rat).Abs(vals[0])
	for _, x := range vals[1:] {
		if a := new(big.Rat).Abs(x); a.Cmp(minAbs) < 0 {
			minAbs = a
		}
	}
	inv := new(big.Rat).Inv(minAbs)
	v := make([]*big.Rat, len(r.red.Cols))
	for j := range v {
		v[j] = new(big.Rat)
	}
	for jj, col := range support {
		v[col].Mul(vals[jj], inv)
	}
	orig := r.red.Expand(v)
	out := make(map[string]*big.Rat)
	for ri, val := range orig {
		if val.Sign() != 0 {
			out[r.network.Reactions[ri].Name] = val
		}
	}
	return out, nil
}

// ReductionSummary describes the preprocessing step ("62x78 -> 35x55").
func (r *Result) ReductionSummary() string { return r.red.Summary() }

// ParticipationCounts returns, for every original reaction that appears
// in at least one mode, the number of modes carrying flux through it.
// This is the aggregate used by knockout screens and by the
// duplicate-count reconciliation in EXPERIMENTS.md; like SupportNames, it
// attributes a merged duplicate column to its representative, the one
// expansion the reduction keeps.
func (r *Result) ParticipationCounts() map[string]int {
	colCounts := make([]int, len(r.red.Cols))
	for _, b := range r.supports {
		for _, c := range b.Indices(nil) {
			colCounts[c]++
		}
	}
	out := make(map[string]int)
	for c, cnt := range colCounts {
		if cnt == 0 {
			continue
		}
		for _, m := range r.red.Cols[c].Members {
			out[r.network.Reactions[m.Index].Name] += cnt
		}
	}
	return out
}

// CountUsing returns how many modes carry flux through the named
// reduced column (identified by any of its member reactions' names).
func (r *Result) CountUsing(reaction string) int {
	col := r.red.ColumnIndexByOriginal(reaction)
	if col < 0 {
		return 0
	}
	n := 0
	for _, b := range r.supports {
		if b.Test(col) {
			n++
		}
	}
	return n
}

// WriteSupports writes one line per mode, listing the support's original
// reaction names — the bit-valued EFM matrix in text form.
func (r *Result) WriteSupports(w io.Writer) error {
	for i := 0; i < r.Len(); i++ {
		names := r.SupportNames(i)
		for j, n := range names {
			if j > 0 {
				if _, err := io.WriteString(w, " "); err != nil {
					return err
				}
			}
			if _, err := io.WriteString(w, n); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	return nil
}

// Verify re-checks every mode in exact arithmetic against the ORIGINAL
// network: steady-state balance, sign feasibility, support minimality
// (nullity 1) with every stored support bit carrying flux, and distinct
// supports. Nullity 1 already rules out a support strictly inside
// another: the smaller mode would be a second, independent kernel vector
// of the larger one's columns. So the cost is linear in modes — one
// exact kernel per mode, on GOMAXPROCS goroutines, and one hash pass for
// repeated supports. The error names the lowest-index violation, whatever
// the goroutine count.
func (r *Result) Verify() error {
	N, _ := r.network.Stoichiometry()
	var (
		next, first atomic.Int64 // first: the lowest failing index so far
		mu          sync.Mutex   // guards err, written with first
		err         error
		wg          sync.WaitGroup
	)
	first.Store(int64(r.Len()))
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Indices are claimed in order, so once one reaches first
			// every later claim would too.
			for i := next.Add(1) - 1; i < first.Load(); i = next.Add(1) - 1 {
				if e := r.verifyMode(N, int(i)); e != nil {
					mu.Lock()
					if i < first.Load() {
						first.Store(i)
						err = e
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	if err != nil {
		return err
	}
	var seen bitset.Distinct
	for i, s := range r.supports {
		if !seen.Add(s) {
			return fmt.Errorf("mode %d repeats an earlier mode's support", i)
		}
	}
	return nil
}

// verifyMode checks mode i's exact flux against the original network's
// stoichiometry N: sign feasibility and steady-state balance.
func (r *Result) verifyMode(N *ratmat.Matrix, i int) error {
	flux, err := r.Flux(i)
	if err != nil {
		return err
	}
	full := make([]*big.Rat, len(r.network.Reactions))
	for j, rxn := range r.network.Reactions {
		if v, ok := flux[rxn.Name]; ok {
			full[j] = v
			if !rxn.Reversible && v.Sign() < 0 {
				return fmt.Errorf("mode %d: irreversible %s carries %v", i, rxn.Name, v)
			}
		} else {
			full[j] = new(big.Rat)
		}
	}
	for row, b := range N.MulVec(full) {
		if b.Sign() != 0 {
			return fmt.Errorf("mode %d: metabolite row %d imbalance %v", i, row, b)
		}
	}
	return nil
}

// ComputeEFMs computes the elementary flux modes of the network.
func ComputeEFMs(n *Network, cfg Config) (*Result, error) {
	return computeEFMs(n, cfg, nil, nil)
}

// computeEFMs is the driver dispatch shared by ComputeEFMs and the
// cancellable entry points: cancel, when non-nil, aborts the run as soon
// as it is closed (between iterations for the serial engine, through the
// communicator group's abort latch for the distributed drivers) and the
// returned error matches ErrCanceled. pool, when non-nil, is the worker
// fleet the divide-and-conquer scheduler dispatches classes to
// (ComputeEFMsDistributed).
func computeEFMs(n *Network, cfg Config, cancel <-chan struct{}, pool *distrib.Pool) (*Result, error) {
	if cfg.Backend != OnDemandBackend {
		// The streaming request fields belong to the interactive tier
		// alone; silently ignoring them on a batch backend would return
		// the full set where the caller asked for the k best.
		switch {
		case cfg.MaxModes != 0:
			return nil, fmt.Errorf("elmocomp: MaxModes bounds the on-demand stream; backend %d enumerates exhaustively", cfg.Backend)
		case len(cfg.Objective) != 0:
			return nil, fmt.Errorf("elmocomp: Objective ranks the on-demand stream; backend %d has no mode ordering", cfg.Backend)
		case cfg.OnMode != nil:
			return nil, fmt.Errorf("elmocomp: OnMode streams on-demand modes; backend %d delivers results only on completion", cfg.Backend)
		}
	}
	red, err := reduce.Network(n.inner, reduce.Options{MergeDuplicates: !cfg.KeepDuplicateReactions})
	if err != nil {
		return nil, err
	}
	if red.N.Cols() == 0 {
		return &Result{network: n.inner, red: red}, nil
	}
	copts := core.Options{
		MaxModes:  cfg.MaxIntermediateModes,
		Workers:   cfg.Workers,
		MemBudget: cfg.MemBudgetBytes,
		SpillDir:  cfg.SpillDir,
	}
	if cfg.Progress != nil {
		copts.Trace = func(it core.IterStats, set *core.ModeSet) {
			cfg.Progress(fmt.Sprintf("row %d: %d candidates, %d accepted, %d modes",
				it.Row, it.Pairs, it.Accepted, it.ModesOut))
		}
	}

	res := &Result{network: n.inner, red: red}
	if cfg.Backend == ReverseSearchBackend {
		if cfg.MaxIntermediateModes != 0 {
			return nil, fmt.Errorf("elmocomp: MaxIntermediateModes is a double-description budget; the reverse-search backend enumerates exhaustively")
		}
		if pool != nil {
			return nil, fmt.Errorf("elmocomp: the reverse-search backend does not dispatch to remote workers")
		}
		ropts := revsearch.Options{Workers: cfg.Workers, Cancel: cancel}
		if cfg.Progress != nil {
			ropts.Progress = func(bases, vertices int64) {
				cfg.Progress(fmt.Sprintf("reverse search: %d bases visited, %d vertices", bases, vertices))
			}
		}
		run, err := revsearch.Run(red.N, red.Reversibilities(), ropts)
		if err != nil {
			return nil, err
		}
		res.supports = core.CanonicalSupports(run.CoreResult())
		st := run.Stats // a copy: &run.Stats would pin the run's mode set
		res.CandidateModes = st.Bases
		res.PeakNodeBytes = st.PeakBytes
		res.RevSearch = &st
		return res, nil
	} else if cfg.Backend == OnDemandBackend {
		if cfg.MaxIntermediateModes != 0 {
			return nil, fmt.Errorf("elmocomp: MaxIntermediateModes is a double-description budget; the on-demand backend bounds its stream with MaxModes")
		}
		if pool != nil {
			return nil, fmt.Errorf("elmocomp: the on-demand backend does not dispatch to remote workers")
		}
		var obj []*big.Rat
		if len(cfg.Objective) > 0 {
			obj = make([]*big.Rat, red.N.Cols())
			for name, val := range cfg.Objective {
				col := red.ColumnIndexByOriginal(name)
				if col < 0 {
					return nil, fmt.Errorf("elmocomp: objective reaction %q was eliminated by reduction (or does not exist)", name)
				}
				w, ok := new(big.Rat).SetString(val)
				if !ok {
					return nil, fmt.Errorf("elmocomp: objective weight %q for %s is not a rational", val, name)
				}
				if obj[col] == nil {
					obj[col] = w
				} else {
					// Two reactions merged into one reduced column both
					// carry weights: they price the same flux, so add.
					obj[col].Add(obj[col], w)
				}
			}
		}
		oopts := ondemand.Options{
			Objective: obj,
			MaxModes:  cfg.MaxModes,
			Cancel:    cancel,
			Progress:  cfg.Progress,
		}
		var values []string
		st, err := ondemand.Generate(red.N, red.Reversibilities(), oopts, func(m ondemand.Mode) {
			res.supports = append(res.supports, m.Support)
			values = append(values, m.Value.RatString())
			if cfg.OnMode != nil {
				names := red.SupportNames(m.Support.Indices(nil))
				cfg.OnMode(ModeEvent{Rank: m.Rank, Support: names, Value: m.Value.RatString()})
			}
		})
		if err != nil {
			return nil, err
		}
		res.CandidateModes = st.Bases
		res.OnDemand = &OnDemandStats{Stats: st, Values: values}
		return res, nil
	} else if cfg.Backend != NullspaceBackend {
		return nil, fmt.Errorf("elmocomp: unknown backend %d", cfg.Backend)
	}
	switch cfg.Algorithm {
	case Serial, Parallel:
		p, err := nullspace.New(red.N, red.Reversibilities(), nullspace.Heuristics{})
		if err != nil {
			return nil, err
		}
		// Algorithm 1 is Algorithm 2 on a group of one, which reads
		// neither the transport nor the collective deadline.
		popts := parallel.Options{Core: copts, Nodes: 1, Timeout: cfg.CommTimeout, Cancel: cancel}
		if cfg.Algorithm == Parallel {
			popts.Nodes = cfg.Nodes
		}
		if cfg.OverTCP {
			popts.Transport = parallel.TCP
		}
		run, err := parallel.Run(p, popts)
		if err != nil {
			return nil, err
		}
		res.supports = core.CanonicalSupports(run.Result)
		res.CandidateModes = run.TotalPairs()
		res.PeakNodeBytes = run.PeakNodeBytes
		res.Store = run.Result.Store
		res.CommBytes = run.Comm.Bytes
		res.CommWireBytes = run.Comm.WireBytes
		res.CommMessages = run.Comm.Messages
		res.Iterations, res.PairsVisited, res.RankEliminations = iterStats(run.Stats, red, p)
		res.Phases = run.MaxPhases()
		res.NodePhases = run.NodePhases
	case DivideAndConquer:
		dopts := dnc.Options{
			Parallel:         parallel.Options{Core: copts, Nodes: cfg.Nodes, Timeout: cfg.CommTimeout, Cancel: cancel},
			Qsub:             cfg.Qsub,
			GroupConcurrency: cfg.GroupConcurrency,
		}
		if cfg.OverTCP {
			dopts.Parallel.Transport = parallel.TCP
		}
		if pool != nil {
			dopts.Remote = pool.Bind(distrib.JobSpec{
				Key:            RequestKey(n, cfg),
				Network:        n.Canonical(),
				Q:              red.N.Cols(),
				KeepDuplicates: cfg.KeepDuplicateReactions,
				Exec:           dopts.Parallel,
			})
		}
		if len(cfg.Partition) > 0 {
			if dopts.Partition, err = partitionColumns(red, cfg.Partition); err != nil {
				return nil, err
			}
		}
		if cfg.Progress != nil {
			dopts.Progress = func(sub *dnc.Subproblem) {
				cfg.Progress(fmt.Sprintf("subset %0*b: %d EFMs, %d candidates",
					len(sub.Partition), sub.ID, len(sub.Supports), sub.Pairs))
			}
		}
		run, err := dnc.Run(red.N, red.Reversibilities(), dopts)
		if err != nil {
			return nil, err
		}
		res.supports = run.Supports
		res.CandidateModes = run.TotalPairs()
		res.PeakNodeBytes = run.PeakNodeBytes()
		res.PeakConcurrentBytes = run.PeakConcurrentBytes
		res.Store = run.Store()
		res.Scheduler = run.Sched
		res.Subproblems = subStats(run, red)
		for _, s := range res.Subproblems {
			res.Phases.GenCand += s.Seconds.GenCand
			res.Phases.RankTest += s.Seconds.RankTest
			res.Phases.Communicate += s.Seconds.Communicate
			res.Phases.Merge += s.Seconds.Merge
		}
	default:
		return nil, fmt.Errorf("elmocomp: unknown algorithm %d", cfg.Algorithm)
	}
	return res, nil
}

// CheckPartition refuses cfg's explicit divide-and-conquer partition
// before any run: a reaction that does not exist or that reduction
// eliminated, or reactions that are linearly dependent in the reduced
// network, with the error ComputeEFMs would fail on. It returns nil
// for every other config, without reducing the network.
func CheckPartition(n *Network, cfg Config) error {
	if cfg.Backend != NullspaceBackend || cfg.Algorithm != DivideAndConquer || len(cfg.Partition) == 0 {
		return nil
	}
	red, err := reduce.Network(n.inner, reduce.Options{MergeDuplicates: !cfg.KeepDuplicateReactions})
	if err != nil || red.N.Cols() == 0 {
		return err
	}
	_, err = partitionColumns(red, cfg.Partition)
	return err
}

// partitionColumns maps an explicit partition's reaction names to
// reduced columns Algorithm 3 can split the modes by.
func partitionColumns(red *reduce.Reduced, names []string) ([]int, error) {
	cols := make([]int, len(names))
	for i, name := range names {
		if cols[i] = red.ColumnIndexByOriginal(name); cols[i] < 0 {
			return nil, fmt.Errorf("elmocomp: partition reaction %q was eliminated by reduction (or does not exist)", name)
		}
	}
	var perr *dnc.PartitionError
	if err := dnc.CheckPartition(red.N, cols); errors.As(err, &perr) {
		var dep []string
		for _, i := range perr.Positions {
			dep = append(dep, names[i])
		}
		return nil, fmt.Errorf("elmocomp: partition reactions %s are linearly dependent in the reduced network (merged reactions count as one); Algorithm 3 needs independent partition reactions", strings.Join(dep, ", "))
	} else if err != nil {
		return nil, err
	}
	return cols, nil
}

// iterStats mirrors the engine's per-iteration statistics and totals
// the pairs it visited and the eliminations it ran.
func iterStats(stats []core.IterStats, red *reduce.Reduced, p *nullspace.Problem) (out []IterationStat, visited, eliminated int64) {
	out = make([]IterationStat, len(stats))
	for i, s := range stats {
		visited += s.Visited
		eliminated += s.Eliminated
		out[i] = IterationStat{
			Reaction:       red.Cols[p.OrigCol(s.Reaction)].Name,
			Reversible:     s.Reversible,
			Pos:            s.Pos,
			Neg:            s.Neg,
			Zero:           s.Zero,
			CandidateModes: s.Pairs,
			Visited:        s.Visited,
			Prefiltered:    s.Prefiltered,
			Tested:         s.Tested,
			Eliminated:     s.Eliminated,
			FullPasses:     s.FullPasses,
			Accepted:       s.Accepted,
			Duplicates:     s.Duplicates,
			ModesOut:       s.ModesOut,
			GenSeconds:     s.GenSeconds,
			RankSeconds:    s.TestSeconds,
		}
	}
	return out, visited, eliminated
}

func subStats(run *dnc.Result, red *reduce.Reduced) []SubproblemStat {
	var out []SubproblemStat
	run.Walk(func(s *dnc.Subproblem) {
		pattern := ""
		for i, col := range s.Partition {
			if i > 0 {
				pattern += ","
			}
			op := "=0"
			if s.ID&(1<<uint(i)) != 0 {
				op = "!=0"
			}
			pattern += red.Cols[col].Name + op
		}
		out = append(out, SubproblemStat{
			ID:             s.ID,
			Pattern:        pattern,
			EFMs:           len(s.Supports),
			CandidateModes: s.Pairs,
			Skipped:        s.Skipped,
			ReSplit:        len(s.Children) > 0,
			MemReSplit:     s.MemResplit,
			Unresolved:     s.Unresolved,
			Seconds:        s.Phases,
		})
	})
	return out
}
