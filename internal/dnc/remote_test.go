package dnc

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"elmocomp/internal/parallel"
	"elmocomp/internal/ratmat"
)

// fakeExec is an in-process RemoteExecutor: each slot runs classes
// through localExec (ExecClass, the real worker path) with optional
// injected failures, so the scheduler's remote dispatch is tested without
// any networking underneath.
type fakeExec struct {
	local localExec // the healthy path; its popts are the remote classes' options
	slots int

	mu   sync.Mutex
	dead []bool
	// failures[slot] errors to return (killing the slot on the last one)
	// before the slot starts serving for real. A nil slice serves clean.
	failures [][]error
	runs     int64
	order    []string // class labels in the order healthy slots received them
	// gate, when non-nil, blocks healthy slots' Run until an injected
	// failure fires — so "the other worker pulled a class before the
	// doomed one failed" cannot race the failure out of the schedule.
	gate chan struct{}
}

func newFakeExec(n *ratmat.Matrix, rev []bool, slots int) *fakeExec {
	return &fakeExec{
		local: localExec{N: n, rev: rev}, slots: slots,
		dead:     make([]bool, slots),
		failures: make([][]error, slots),
	}
}

func (f *fakeExec) Slots() int { return f.slots }

func (f *fakeExec) Alive(slot int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return !f.dead[slot]
}

func (f *fakeExec) Run(slot int, c RemoteClass, cancel <-chan struct{}) (*ClassOutcome, error) {
	f.mu.Lock()
	if f.dead[slot] {
		f.mu.Unlock()
		return nil, ErrWorkerLost
	}
	if q := f.failures[slot]; len(q) > 0 {
		err := q[0]
		f.failures[slot] = q[1:]
		f.dead[slot] = true // an injected loss kills the slot for the run
		if f.gate != nil {
			close(f.gate)
			f.gate = nil
		}
		f.mu.Unlock()
		return nil, err
	}
	g := f.gate
	f.runs++
	f.order = append(f.order, c.Label)
	f.mu.Unlock()
	if g != nil {
		select {
		case <-g:
		case <-cancel:
			return nil, ErrWorkerLost
		}
	}
	return f.local.Run(slot, c, cancel)
}

// TestRemoteMatchesOneGroup: a pure-remote run (no local groups) and a
// mixed local+remote run must both reproduce the default one-group run's
// supports and subproblem tree byte-for-byte.
func TestRemoteMatchesOneGroup(t *testing.T) {
	red := toyReduced(t)
	rev := red.Reversibilities()
	one, err := Run(red.N, rev, Options{Qsub: 2})
	if err != nil {
		t.Fatal(err)
	}
	wantTree, wantSup := treeKey(one), keysOf(one.Supports)
	for _, tc := range []struct {
		name   string
		groups int
		slots  int
	}{
		{"pure-remote-2", 0, 2},
		{"pure-remote-1", 0, 1},
		{"mixed", 1, 2},
	} {
		exec := newFakeExec(red.N, rev, tc.slots)
		res, err := Run(red.N, rev, Options{Qsub: 2, GroupConcurrency: tc.groups, Remote: exec})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := keysOf(res.Supports); got != wantSup {
			t.Fatalf("%s: supports differ\n got %s\nwant %s", tc.name, got, wantSup)
		}
		if got := treeKey(res); got != wantTree {
			t.Fatalf("%s: subproblem tree differs\n got %s\nwant %s", tc.name, got, wantTree)
		}
		if tc.groups == 0 && res.Sched.RemoteClasses != res.Sched.Enqueued {
			t.Fatalf("%s: %d of %d classes ran remotely on a healthy pure-remote pool",
				tc.name, res.Sched.RemoteClasses, res.Sched.Enqueued)
		}
		if res.Sched.RemoteRequeues != 0 {
			t.Fatalf("%s: %d requeues on a healthy pool", tc.name, res.Sched.RemoteRequeues)
		}
	}
}

// TestRemoteDispatchLongPoleFirst: root classes enter the queue in
// rootOrder — most must-be-non-zero partition reactions first, then class
// ID descending — and leave it FIFO, whoever pops them. With one remote
// slot and no local group, or one local group, classes run in that order;
// a re-split's children and a lost class's requeue go to the tail, after
// every class enqueued before them.
func TestRemoteDispatchLongPoleFirst(t *testing.T) {
	var roots []*Subproblem
	for id := uint64(0); id < 16; id++ {
		roots = append(roots, &Subproblem{ID: id})
	}
	var ids []uint64
	for _, sub := range rootOrder(roots) {
		ids = append(ids, sub.ID)
	}
	if got := fmt.Sprint(ids); got != "[15 14 13 11 7 12 10 9 6 5 3 8 4 2 1 0]" {
		t.Fatalf("qsub 4 root order %s", got)
	}

	red := toyReduced(t)
	rev := red.Reversibilities()
	const qsub3 = "111 110 101 011 100 010 001 000"
	exec := newFakeExec(red.N, rev, 1)
	res, err := Run(red.N, rev, Options{Qsub: 3, Remote: exec})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(exec.order, " "); got != qsub3 {
		t.Fatalf("dispatch order %s, want %s", got, qsub3)
	}

	// One local group pops the same order; Progress reports it, less the
	// classes found infeasible (which are silent).
	var done []string
	res, err = Run(red.N, rev, Options{Qsub: 3, GroupConcurrency: 1,
		Progress: func(sub *Subproblem) { done = append(done, classLabel(sub)) }})
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, label := range strings.Fields(qsub3) {
		for _, sub := range res.Subproblems {
			if classLabel(sub) == label && !sub.Skipped {
				want = append(want, label)
			}
		}
	}
	if got := strings.Join(done, " "); got != strings.Join(want, " ") {
		t.Fatalf("local completion order %s, want %s", got, strings.Join(want, " "))
	}

	// Re-split children join the tail: replaying the finished tree
	// through a FIFO seeded with the roots in rootOrder, where a popped
	// class that was re-split appends its two children, must give the
	// dispatch order.
	exec = newFakeExec(red.N, rev, 1)
	o := modeResplitOpts()
	exec.local.popts = o.Parallel
	o.Remote = exec
	res, err = Run(red.N, rev, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sched.Resplits == 0 {
		t.Fatal("no re-splits recorded (MaxModes=4 must overflow)")
	}
	want = nil
	for fifo := rootOrder(res.Subproblems); len(fifo) > 0; fifo = fifo[1:] {
		want = append(want, classLabel(fifo[0]))
		fifo = append(fifo, fifo[0].Children...)
	}
	if got := strings.Join(exec.order, " "); got != strings.Join(want, " ") {
		t.Fatalf("dispatch order %s, want FIFO order %s", got, strings.Join(want, " "))
	}

	// A lost class goes to the tail. The loss of class 3, the first
	// popped, kills the only slot, so that slot carries on as a local
	// group — then the queue's only consumer — and completes the classes
	// in queue order, the requeued class 3 last.
	exec = newFakeExec(red.N, rev, 1)
	exec.failures[0] = []error{ErrWorkerLost}
	ids = nil
	_, err = Run(red.N, rev, Options{Qsub: 2, Remote: exec,
		Progress: func(sub *Subproblem) { ids = append(ids, sub.ID) }})
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(ids); got != "[2 1 0 3]" {
		t.Fatalf("completion order after losing class 3: %s, want [2 1 0 3]", got)
	}
}

// TestRemoteResplitTreePinned: budget overflows raised by remote workers
// (core.ErrBudget / core.ErrMemBudget through the wire-independent
// executor) must drive the one re-split policy into exactly the frozen
// trees the local lanes are pinned to — including the memory fixture's
// soft retry on the same worker at the depth limit.
func TestRemoteResplitTreePinned(t *testing.T) {
	red := toyReduced(t)
	rev := red.Reversibilities()
	for _, tc := range []struct {
		name string
		opts Options
		pin  string
	}{
		{"mode-budget", modeResplitOpts(), pinModeResplitTree},
		{"mem-budget", memResplitOpts(t), pinMemResplitTree},
	} {
		exec := newFakeExec(red.N, rev, 2)
		exec.local.popts = tc.opts.Parallel
		o := tc.opts
		o.Remote = exec
		res, err := Run(red.N, rev, o)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := treeHash(res); got != tc.pin {
			t.Fatalf("%s: remote re-split tree hash %s, want %s\n%s", tc.name, got, tc.pin, treeKey(res))
		}
		if res.Sched.Resplits == 0 {
			t.Fatalf("%s: no re-splits recorded (the budget must overflow)", tc.name)
		}
		if !res.Complete() {
			t.Fatalf("%s: classes left unresolved", tc.name)
		}
	}
}

// TestRemoteWorkerLossRequeues: a worker dying mid-class re-enqueues the
// class (RemoteRequeues counted) and the surviving worker finishes the
// job with an identical result — the run must not fail.
func TestRemoteWorkerLossRequeues(t *testing.T) {
	red := toyReduced(t)
	rev := red.Reversibilities()
	one, err := Run(red.N, rev, Options{Qsub: 2})
	if err != nil {
		t.Fatal(err)
	}
	exec := newFakeExec(red.N, rev, 2)
	exec.failures[0] = []error{ErrWorkerLost}
	exec.gate = make(chan struct{})
	res, err := Run(red.N, rev, Options{Qsub: 2, Remote: exec})
	if err != nil {
		t.Fatalf("run failed despite a surviving worker: %v", err)
	}
	if got, want := keysOf(res.Supports), keysOf(one.Supports); got != want {
		t.Fatalf("supports differ after worker loss\n got %s\nwant %s", got, want)
	}
	if got, want := treeKey(res), treeKey(one); got != want {
		t.Fatalf("tree differs after worker loss\n got %s\nwant %s", got, want)
	}
	if res.Sched.RemoteRequeues != 1 {
		t.Fatalf("RemoteRequeues = %d, want 1", res.Sched.RemoteRequeues)
	}
	if res.Sched.RemoteTimeouts != 0 {
		t.Fatalf("RemoteTimeouts = %d, want 0 (loss was a crash, not a deadline)", res.Sched.RemoteTimeouts)
	}
}

// TestRemoteTimeoutRequeues: the deadline flavor of worker loss must
// count under both RemoteRequeues and RemoteTimeouts and still complete.
func TestRemoteTimeoutRequeues(t *testing.T) {
	red := toyReduced(t)
	rev := red.Reversibilities()
	exec := newFakeExec(red.N, rev, 2)
	exec.failures[1] = []error{ErrWorkerTimeout}
	exec.gate = make(chan struct{})
	res, err := Run(red.N, rev, Options{Qsub: 2, Remote: exec})
	if err != nil {
		t.Fatalf("run failed despite a surviving worker: %v", err)
	}
	if res.Sched.RemoteTimeouts != 1 || res.Sched.RemoteRequeues != 1 {
		t.Fatalf("requeues=%d timeouts=%d, want 1/1",
			res.Sched.RemoteRequeues, res.Sched.RemoteTimeouts)
	}
	if got := keysOf(res.Supports); got != keysOf(serialSupports(t, red.N, rev)) {
		t.Fatalf("supports differ after timeout requeue: %s", got)
	}
}

// TestRemoteAllWorkersDieFallback: when every worker dies with classes
// outstanding and there are no local groups, the last dead slot, carrying
// on as a local group, must finish the job — deadlock or failure here
// would turn a fleet outage into a lost run.
func TestRemoteAllWorkersDieFallback(t *testing.T) {
	red := toyReduced(t)
	rev := red.Reversibilities()
	exec := newFakeExec(red.N, rev, 2)
	exec.failures[0] = []error{ErrWorkerLost}
	exec.failures[1] = []error{ErrWorkerLost}
	done := make(chan struct{})
	var res *Result
	var err error
	go func() {
		res, err = Run(red.N, rev, Options{Qsub: 2, Remote: exec})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("scheduler deadlocked after total worker loss")
	}
	if err != nil {
		t.Fatalf("run failed instead of falling back locally: %v", err)
	}
	if got := keysOf(res.Supports); got != keysOf(serialSupports(t, red.N, rev)) {
		t.Fatalf("fallback supports differ: %s", got)
	}
	if res.Sched.RemoteClasses != 0 {
		t.Fatalf("RemoteClasses = %d on a pool that never served", res.Sched.RemoteClasses)
	}
	if res.Sched.RemoteRequeues != 2 {
		t.Fatalf("RemoteRequeues = %d, want 2", res.Sched.RemoteRequeues)
	}
}

// TestRemoteEmptyPoolDegrades: Remote set but zero slots must still run
// (one local group), not hang with nobody pulling the queue.
func TestRemoteEmptyPoolDegrades(t *testing.T) {
	red := toyReduced(t)
	rev := red.Reversibilities()
	exec := newFakeExec(red.N, rev, 0)
	res, err := Run(red.N, rev, Options{Qsub: 2, Remote: exec})
	if err != nil {
		t.Fatal(err)
	}
	if got := keysOf(res.Supports); got != keysOf(serialSupports(t, red.N, rev)) {
		t.Fatalf("supports differ: %s", got)
	}
}

// TestExecClassValidation: the worker entry point must reject malformed
// class specs instead of indexing out of range.
func TestExecClassValidation(t *testing.T) {
	red := toyReduced(t)
	rev := red.Reversibilities()
	if _, err := ExecClass(red.N, rev, []int{red.N.Cols()}, 0, parallel.Options{}); err == nil {
		t.Fatal("out-of-range partition column accepted")
	}
	if _, err := ExecClass(red.N, rev, []int{0}, 7, parallel.Options{}); err == nil {
		t.Fatal("out-of-range class ID accepted")
	}
}
