// Package dnc implements the combined parallel Nullspace Algorithm
// (Algorithm 3 of the paper): divide-and-conquer partitioning of the
// elementary-flux-mode set composed with the combinatorial parallel
// algorithm.
//
// A subset of qsub partition reactions splits the EFM set into 2^qsub
// disjoint classes by the zero/non-zero flux pattern on those reactions.
// For class k, reactions that must carry zero flux are removed from the
// stoichiometry; the kernel is recomputed with the must-be-non-zero
// reactions forced into the last pivot rows; the parallel Nullspace
// Algorithm runs only up to iteration q−|nzf| (Proposition 1); and the
// intermediate columns with non-zero flux in every must-be-non-zero row
// are exactly the class's EFMs. Subproblems are independent, so peak
// memory drops and — empirically — so does the cumulative number of
// intermediate candidates (Tables III and IV).
//
// When a subproblem exceeds its mode budget, it is re-split by appending
// one more partition reaction (the paper's Network II treatment, where
// subsets 1 and 3 of {R54r, R90r, R60r} were re-split by R22r).
package dnc

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"

	"elmocomp/internal/bitset"
	"elmocomp/internal/core"
	"elmocomp/internal/linalg"
	"elmocomp/internal/nullspace"
	"elmocomp/internal/parallel"
	"elmocomp/internal/ratmat"
)

// Options configure a divide-and-conquer run.
type Options struct {
	// Parallel configures the inner combinatorial parallel algorithm
	// (node count, transport, timeout). Core.LastRow is
	// managed by this driver and must be zero. Core.MaxModes, when set,
	// is the per-subproblem intermediate budget that triggers adaptive
	// re-splitting. Core.Workers sets the shared-memory worker count of
	// every simulated node in every subproblem enumeration (0 =
	// GOMAXPROCS), giving the full node×core hybrid decomposition.
	Parallel parallel.Options
	// Partition lists the partition reactions as column indices of the
	// input matrix; they must be linearly independent columns
	// (PartitionError). Empty means: choose Qsub reactions automatically
	// (the last pivot rows of the full problem's reordered kernel, the
	// paper's choice).
	Partition []int
	// Qsub is the partition size for automatic selection (default 2).
	Qsub int
	// MaxDepth bounds adaptive re-splitting recursion (default 3).
	MaxDepth int
	// GroupConcurrency is the number of local node groups concurrently
	// pulling classes from the work queue, a FIFO whose root classes are
	// pushed dearest first: most must-be-non-zero partition reactions,
	// then class ID descending (the paper's farming of the 2^qsub
	// independent subproblems across groups of compute nodes). Each group
	// is one slot of the in-process executor, run by the same loop as a
	// remote slot. 0 means one group — or, with Remote set, no local group
	// at all. Result.Supports and the subproblem tree are byte-identical
	// at every setting — only wall-clock, Progress arrival order and the
	// scheduler diagnostics change.
	GroupConcurrency int
	// Remote, when set, adds its slots to the pool of runners: each pulls
	// classes off the head of the queue the local groups use and runs
	// them on its remote worker. GroupConcurrency 0 is then a pure-remote
	// run; if every worker dies with classes outstanding, the last dead
	// slot carries on as a local group. Worker loss re-enqueues the class
	// at the tail; results stay byte-identical to a local run because a
	// local group and a remote worker run a class through the same body,
	// ExecClass.
	Remote RemoteExecutor
	// Progress, when set, is called as each subproblem finishes
	// (enumerated or left unresolved; infeasible skipped classes are
	// silent). Subproblems finish on concurrent group goroutines:
	// invocations are serialized by an internal mutex — the callback is
	// never entered concurrently with itself — but the arrival ORDER is
	// scheduling-dependent. The callback must not block for long: it
	// stalls the completing group.
	Progress func(sub *Subproblem)
}

// Subproblem describes one divide-and-conquer class and its outcome.
type Subproblem struct {
	ID        uint64 // bit i set ⇔ Partition[i] must carry non-zero flux
	Partition []int  // partition reactions (input column indices)
	Depth     int

	// EFM results: canonical supports over the input columns, sorted
	// by bitset.Set.Compare.
	Supports []bitset.Set
	// Pairs is the subproblem's candidate-mode count (the paper's
	// per-subset "# candidate modes").
	Pairs int64
	// PeakNodeBytes is the largest per-node mode-set payload.
	PeakNodeBytes int64
	// Phases are the inner parallel run's critical-path phase times.
	Phases parallel.PhaseTimes
	// Store holds the inner run's between-rounds store counters (summed
	// over the group's nodes).
	Store core.StoreStats
	// MemResplit marks a re-split triggered by the memory budget (the
	// surviving set's flat footprint over core.Options.MemBudget) rather
	// than the intermediate mode-count budget.
	MemResplit bool
	// Children holds the re-split subproblems when the budget was
	// exceeded (Supports is then nil at this level).
	Children []*Subproblem
	// Skipped marks classes proven empty without running (a
	// must-be-non-zero reaction cannot carry flux at all).
	Skipped bool
	// Unresolved marks classes that exceeded the mode budget at the
	// re-split depth limit: their EFMs were NOT computed. Callers doing
	// budgeted explorations (the Table IV simulation) check this flag;
	// Result.Complete reports whether any class was left unresolved.
	Unresolved bool
}

// EFMCount counts the EFMs in this subproblem, including children.
func (s *Subproblem) EFMCount() int {
	n := len(s.Supports)
	for _, c := range s.Children {
		n += c.EFMCount()
	}
	return n
}

// TotalPairs sums candidate counts, including children.
func (s *Subproblem) TotalPairs() int64 {
	t := s.Pairs
	for _, c := range s.Children {
		t += c.TotalPairs()
	}
	return t
}

// Result is the outcome of a divide-and-conquer run.
type Result struct {
	Partition   []int
	Subproblems []*Subproblem
	// Supports is the union of all subproblem EFM supports, sorted.
	Supports []bitset.Set
	// Sched holds the driver's queue counters. Counter totals are
	// deterministic; queue-depth/active peaks and class completion order
	// are scheduling diagnostics.
	Sched *SchedStats
	// PeakConcurrentBytes is the largest mode-set payload resident
	// across ALL concurrently enumerating local node groups at any
	// instant (classes run on remote workers are not counted). Together
	// with PeakNodeBytes it bounds the memory a GroupConcurrency-wide
	// deployment needs.
	PeakConcurrentBytes int64
}

// Walk visits every subproblem in pre-order: root classes in ID order,
// a re-split class before its children, the zero-flux child first.
func (r *Result) Walk(visit func(*Subproblem)) {
	var walk func(subs []*Subproblem)
	walk = func(subs []*Subproblem) {
		for _, s := range subs {
			visit(s)
			walk(s.Children)
		}
	}
	walk(r.Subproblems)
}

// Complete reports whether every class was fully enumerated (no
// Unresolved leaves).
func (r *Result) Complete() bool {
	complete := true
	r.Walk(func(s *Subproblem) {
		if s.Unresolved {
			complete = false
		}
	})
	return complete
}

// TotalPairs sums the candidate counts over every subproblem (the
// paper's cumulative "total # candidate modes").
func (r *Result) TotalPairs() int64 {
	var t int64
	for _, s := range r.Subproblems {
		t += s.TotalPairs()
	}
	return t
}

// PeakNodeBytes is the largest per-node memory any subproblem needed —
// the quantity divide-and-conquer exists to bound (§IV-B).
func (r *Result) PeakNodeBytes() int64 {
	var m int64
	r.Walk(func(s *Subproblem) {
		if s.PeakNodeBytes > m {
			m = s.PeakNodeBytes
		}
	})
	return m
}

// Store sums the between-rounds store counters over every subproblem —
// the run-wide spill activity a memory budget produced.
func (r *Result) Store() core.StoreStats {
	var t core.StoreStats
	r.Walk(func(s *Subproblem) { t.Add(s.Store) })
	return t
}

// Run executes Algorithm 3 on a reduced stoichiometry (full row rank)
// with the given reversibility flags.
func Run(N *ratmat.Matrix, rev []bool, opts Options) (*Result, error) {
	if opts.Parallel.Core.LastRow != 0 {
		return nil, fmt.Errorf("dnc: Parallel.Core.LastRow is managed by the driver")
	}
	if opts.MaxDepth == 0 {
		opts.MaxDepth = 3
	}
	partition := opts.Partition
	if len(partition) == 0 {
		qsub := opts.Qsub
		if qsub <= 0 {
			qsub = 2
		}
		var err error
		partition, err = AutoPartition(N, rev, qsub)
		if err != nil {
			return nil, err
		}
	}
	if err := CheckPartition(N, partition); err != nil {
		return nil, err
	}
	return runScheduled(N, rev, partition, opts)
}

// CheckPartition refuses a partition Run cannot split the modes by: a
// column out of N's range, or linearly dependent columns
// (PartitionError).
func CheckPartition(N *ratmat.Matrix, partition []int) error {
	for _, j := range partition {
		if j < 0 || j >= N.Cols() {
			return fmt.Errorf("dnc: partition column %d out of range", j)
		}
	}
	if circuit := dependentColumns(N, partition); circuit != nil {
		return &PartitionError{Positions: circuit}
	}
	return nil
}

// PartitionError is Run's refusal of a partition whose columns are
// linearly dependent in N, a column named twice included. prepare forces
// a class's must-be-non-zero columns to be kernel pivots, which needs
// them independent: a class forcing a dependent set non-zero cannot be
// prepared, and the classes would no longer split the modes exactly.
// Checking the partition once covers every class, since dropping
// must-be-zero columns and redundant rows leaves the rank of the rest
// as it is. A re-split's refinement reaction needs no check: it is a
// pivot of the kernel the partition is forced into, so the wider
// partition stays independent (nextPartitionReaction).
type PartitionError struct {
	// Positions index the partition: a minimal linearly dependent set of
	// its columns, in increasing order.
	Positions []int
}

func (e *PartitionError) Error() string {
	return fmt.Sprintf("dnc: partition entries %v name linearly dependent columns; a partition needs independent reactions", e.Positions)
}

// dependentColumns returns nil when N's partition columns are linearly
// independent, and otherwise the positions of a minimal dependent subset:
// the support of the first kernel vector of N[:,partition], whose free
// column depends on the pivot columns before it in exactly one way.
func dependentColumns(N *ratmat.Matrix, partition []int) []int {
	k, free := N.SelectColumns(partition).Kernel()
	if len(free) == 0 {
		return nil
	}
	var circuit []int
	for i := range partition {
		if k.At(i, 0).Sign() != 0 {
			circuit = append(circuit, i)
		}
	}
	return circuit
}

// collectSupports walks the finished subproblem tree in class-ID order
// and assembles the sorted union. Classes are disjoint, so the supports
// are pairwise distinct and the total comparator makes the sorted order
// independent of completion order — the determinism anchor of the run.
func collectSupports(res *Result) {
	res.Walk(func(s *Subproblem) {
		res.Supports = append(res.Supports, s.Supports...)
	})
	slices.SortFunc(res.Supports, bitset.Set.Compare)
}

// AutoPartition picks the last qsub pivot rows of the full problem's
// reordered kernel (the paper's choice: "the last three reactions in the
// reordered nullspace matrix").
func AutoPartition(N *ratmat.Matrix, rev []bool, qsub int) ([]int, error) {
	p, err := nullspace.New(N, rev, nullspace.Heuristics{})
	if err != nil {
		return nil, err
	}
	if qsub >= p.Q()-p.D {
		return nil, fmt.Errorf("dnc: qsub %d must be smaller than the %d pivot rows", qsub, p.Q()-p.D)
	}
	var cols []int
	for i := p.Q() - qsub; i < p.Q(); i++ {
		c := p.OrigCol(p.Perm[i])
		cols = append(cols, c)
	}
	sort.Ints(cols)
	return cols, nil
}

// prepared holds a class's prepared enumeration inputs: the reduced
// class stoichiometry's nullspace problem plus the column maps needed
// to fold results back into the full input space.
type prepared struct {
	p        *nullspace.Problem
	keep     []int // class columns as input-column indices
	nzfLocal []int // must-be-non-zero reactions as class-column indices
}

// prepare builds the class stoichiometry for the (partition, id) class
// and prepares its nullspace problem. A class with a trivial kernel (some
// must-be-non-zero reaction cannot carry flux) is infeasible: prepare
// returns nullspace.ErrTrivialKernel, and the subproblem is Skipped. Any
// other error — must-be-non-zero columns that cannot all be pivots —
// means the class cannot be enumerated exactly and fails the run.
func prepare(N *ratmat.Matrix, rev []bool, partition []int, id uint64) (*prepared, error) {
	var zf, nzf []int
	for i, col := range partition {
		if id&(1<<uint(i)) != 0 {
			nzf = append(nzf, col)
		} else {
			zf = append(zf, col)
		}
	}

	// Build the class stoichiometry: drop must-be-zero columns.
	drop := make(map[int]bool, len(zf))
	for _, c := range zf {
		drop[c] = true
	}
	var keep []int
	for j := 0; j < N.Cols(); j++ {
		if !drop[j] {
			keep = append(keep, j)
		}
	}
	Ni := N.SelectColumns(keep)
	// Removing columns may lower the row rank; keep an independent row
	// subset so preparation succeeds.
	indep := Ni.IndependentRows()
	if len(indep) < Ni.Rows() {
		Ni = Ni.SelectRows(indep)
	}
	revi := make([]bool, len(keep))
	nzfLocal := make([]int, 0, len(nzf))
	for jj, j := range keep {
		revi[jj] = rev[j]
		for _, c := range nzf {
			if c == j {
				nzfLocal = append(nzfLocal, jj)
			}
		}
	}

	p, err := nullspace.New(Ni, revi, nullspace.Heuristics{ForceLast: nzfLocal})
	if err != nil {
		return nil, err
	}
	return &prepared{p: p, keep: keep, nzfLocal: nzfLocal}, nil
}

// enumerate runs the inner combinatorial parallel algorithm on a
// prepared class and returns its outcome. A blown mode budget surfaces
// as an error matching core.ErrBudget (the caller's re-split signal);
// every other failure is a fault and propagates unchanged.
func enumerate(pr *prepared, copts parallel.Options, fullCols int) (*ClassOutcome, error) {
	copts.Core.LastRow = pr.p.Q() - len(pr.nzfLocal)
	run, err := parallel.Run(pr.p, copts)
	if err != nil {
		return nil, err
	}
	// The class's CPU grant: every node's workers, all idle once the
	// group has exited.
	workers := copts.Core.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	shards := core.FoldShards(max(copts.Nodes, 1)*workers, run.Modes.Len())
	return &ClassOutcome{
		Supports:      extract(run.Result, pr.p, pr.keep, pr.nzfLocal, fullCols, shards),
		Pairs:         run.TotalPairs(),
		PeakNodeBytes: run.PeakNodeBytes,
		Phases:        run.MaxPhases(),
		Store:         run.Result.Store,
	}, nil
}

// errNoRefinement marks a partition that cannot grow: every pivot
// reaction is already in it. Mode-count re-splits fail on it; memory
// re-splits fall back to the soft-budget spill path.
var errNoRefinement = errors.New("dnc: no reaction left to refine the partition")

// nextPartitionReaction picks the refinement reaction: the last pivot
// row of the full reordered kernel not already in the partition (the
// paper extended {R54r,R90r,R60r} by R22r, its next-to-last row).
func nextPartitionReaction(N *ratmat.Matrix, rev []bool, partition []int) (int, error) {
	p, err := nullspace.New(N, rev, nullspace.Heuristics{ForceLast: partition})
	if err != nil {
		return -1, err
	}
	in := make(map[int]bool, len(partition))
	for _, c := range partition {
		in[c] = true
	}
	for i := p.Q() - 1; i >= p.D; i-- {
		c := p.OrigCol(p.Perm[i])
		if !in[c] {
			return c, nil
		}
	}
	return -1, errNoRefinement
}

// extract applies Proposition 1: keep intermediate columns with non-zero
// flux in every must-be-non-zero row, then map supports back to the full
// input column space (must-be-zero reactions contribute zero rows). The
// list is sorted and pairwise distinct; the fold runs over shards ranges
// of the columns at once, each shard filtering its own.
func extract(run *core.Result, p *nullspace.Problem, keep []int, nzfLocal []int, fullQ, shards int) []bitset.Set {
	set := run.Modes
	inv := p.InvPerm()
	// Permuted row indices that must be non-zero. With splitting, a
	// partition reaction could be represented by several problem
	// columns; ForceLast guarantees partition columns are pivots (never
	// split), so the map is one-to-one.
	var mustRows []int
	for _, jj := range nzfLocal {
		for c := 0; c < p.Q(); c++ {
			if p.OrigCol(c) == jj {
				mustRows = append(mustRows, inv[c])
			}
		}
	}
	filter := func() func(i int) bool {
		// One elimination workspace and support-index scratch per shard
		// for its whole re-validation sweep: a per-column allocation
		// would dominate the loop on large classes.
		ws := linalg.NewWorkspace(p.M()+2, p.M()+2)
		scratch := make([]int, 0, p.Q())
		return func(i int) bool {
			for _, r := range mustRows {
				if !set.Test(i, r) {
					return false
				}
				// Sign feasibility: a negative value in an irreversible
				// must-be-non-zero row marks a column the skipped
				// iterations would have removed.
				if !p.Rev[r] && set.Tail(i)[r-set.FirstRow()] < 0 {
					return false
				}
			}
			// Exact elementarity, decided again. A column here is an
			// initial kernel column, elementary by construction, or was
			// accepted by its row's full-support rank test on the support
			// it still has (later rows copy its bits unchanged). So the
			// test re-decides, without the workers' verdict tables, what
			// the run already decided: it rejected none of the columns
			// measured in DESIGN §12, and it stays, so that a class's
			// list never rests on a cached verdict alone.
			return core.IsElementaryWS(p, set, i, 0, ws, scratch)
		}
	}
	f := core.Fold{Problem: p, Modes: set, Width: fullQ, Out: keep, Filter: filter}
	return f.Supports(shards)
}
