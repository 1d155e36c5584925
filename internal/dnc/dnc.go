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
	// input matrix. Empty means: choose Qsub reactions automatically
	// (the last pivot rows of the full problem's reordered kernel, the
	// paper's choice).
	Partition []int
	// Qsub is the partition size for automatic selection (default 2).
	Qsub int
	// MaxDepth bounds adaptive re-splitting recursion (default 3).
	MaxDepth int
	// GroupConcurrency is the number of local node groups concurrently
	// pulling classes from the largest-estimated-first work queue (the
	// paper's farming of the 2^qsub independent subproblems across
	// groups of compute nodes). 0 means one group — or, with Remote set,
	// no local group at all. Result.Supports and the subproblem tree are
	// byte-identical at every setting — only wall-clock, Progress
	// arrival order and the scheduler diagnostics change.
	GroupConcurrency int
	// Remote, when set, adds remote dispatch: one dispatcher per executor
	// slot pulls classes off the same queue the local groups use, largest
	// first like them, and runs them on remote workers. GroupConcurrency
	// 0 is then a pure-remote run, where an emergency local group takes
	// over only if every worker dies with classes outstanding. Worker
	// loss re-enqueues the class; results stay byte-identical to a local
	// run because workers run the same prepare→enumerate path (see
	// ExecClass).
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

	// EFM results: canonical supports over the input columns.
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
	for _, j := range partition {
		if j < 0 || j >= N.Cols() {
			return nil, fmt.Errorf("dnc: partition column %d out of range", j)
		}
	}
	return runScheduled(N, rev, partition, opts)
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
// to fold results back into the full input space, and the scheduling
// estimate.
type prepared struct {
	p        *nullspace.Problem
	keep     []int // class columns as input-column indices
	nzfLocal []int // must-be-non-zero reactions as class-column indices
	// est is the kernel's pair-count estimate used by the scheduler's
	// largest-estimated-first queue: the first iteration's pos·neg pair
	// count over the initial kernel columns, scaled by the number of
	// iterations the class runs (Proposition 1's early stop included).
	// A scheduling heuristic only — it never influences results.
	est int64
}

// prepare builds the class stoichiometry for the (partition, id) class
// and prepares its nullspace problem. It returns nil when the class is
// infeasible (trivial kernel: some must-be-non-zero reaction cannot
// carry flux), i.e. the subproblem is Skipped.
func prepare(N *ratmat.Matrix, rev []bool, partition []int, id uint64) *prepared {
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
		// A trivial kernel means the class admits no flux at all.
		return nil
	}
	pr := &prepared{p: p, keep: keep, nzfLocal: nzfLocal}
	pr.est = estimatePairs(p, len(nzfLocal))
	return pr
}

// estimatePairs is the scheduler's size estimate: the first iteration's
// pos·neg candidate count over the initial kernel columns, times the
// iteration count. Cheap (one kernel-row sign sweep), deterministic,
// and correlated with enumeration cost — larger classes sort first so
// the long pole starts early instead of serializing at the tail.
func estimatePairs(p *nullspace.Problem, nzf int) int64 {
	const tol = linalg.DefaultTol
	iters := (p.Q() - nzf) - p.D
	if iters <= 0 {
		return 0
	}
	var pos, neg int64
	for _, v := range p.KernelRows[p.D*p.D : (p.D+1)*p.D] {
		switch {
		case v > tol:
			pos++
		case v < -tol:
			neg++
		}
	}
	return (pos*neg + 1) * int64(iters)
}

// enumerate runs the inner combinatorial parallel algorithm on a
// prepared class and fills the subproblem's result fields. A blown mode
// budget surfaces as an error matching core.ErrBudget (the caller's
// re-split signal); every other failure is a fault and propagates
// unchanged.
func enumerate(sub *Subproblem, pr *prepared, copts parallel.Options, fullCols int) error {
	copts.Core.LastRow = pr.p.Q() - len(pr.nzfLocal)
	run, err := parallel.Run(pr.p, copts)
	if err != nil {
		return err
	}
	sub.Pairs = run.TotalPairs()
	sub.PeakNodeBytes = run.PeakNodeBytes
	sub.Phases = run.MaxPhases()
	sub.Store = run.Result.Store
	sub.Supports = extract(run.Result, pr.p, pr.keep, pr.nzfLocal, fullCols)
	return nil
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
// input column space (must-be-zero reactions contribute zero rows).
func extract(run *core.Result, p *nullspace.Problem, keep []int, nzfLocal []int, fullQ int) []bitset.Set {
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
	var out []bitset.Set
	var seen bitset.Distinct
	// One shared elimination workspace and support-index scratch for the
	// whole re-validation sweep: the early-stop point re-checks every
	// extracted column, and a per-column workspace allocation would
	// dominate the loop on large classes.
	ws := linalg.NewWorkspace(p.M()+2, p.M()+2)
	scratch := make([]int, 0, p.Q())
	for i := 0; i < set.Len(); i++ {
		ok := true
		for _, r := range mustRows {
			if !set.Test(i, r) {
				ok = false
				break
			}
			// Sign feasibility: a negative value in an irreversible
			// must-be-non-zero row marks a column the skipped
			// iterations would have removed.
			if !p.Rev[r] && set.Tail(i)[r-set.FirstRow()] < 0 {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		// Exact elementarity: all unprocessed rows are in the support
		// here, so the full-support rank test is the precise EFM
		// condition (the mid-run test is narrower and can let columns
		// through that later iterations would have eliminated; initial
		// kernel basis columns were never tested at all).
		if !core.IsElementaryWS(p, set, i, 0, ws, scratch) {
			continue
		}
		fold, ok := p.Fold(set.BitsWords(i))
		if !ok {
			continue
		}
		b := bitset.New(fullQ)
		for _, c := range fold.Indices(scratch[:0]) {
			b.Set(keep[c])
		}
		if seen.Add(b) {
			out = append(out, b)
		}
	}
	return out
}
