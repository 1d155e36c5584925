package jobs

import (
	"context"
	"time"

	"elmocomp"
	"elmocomp/internal/cluster"
	"sync"
)

// State is a job's lifecycle position. Transitions are monotone:
// Queued → Running → one of Done/Failed/Canceled, with the shortcut
// Queued → Canceled for jobs deleted before a worker picks them up and
// Queued → Done for cache hits (which never occupy a worker at all).
type State int

const (
	StateQueued State = iota
	StateRunning
	StateDone
	StateFailed
	StateCanceled
)

// String renders the state in the API's lowercase vocabulary.
func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	case StateCanceled:
		return "canceled"
	}
	return "unknown"
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Event is one line of a job's progress stream: state transitions, the
// driver's Options.Progress lines, and — for on-demand jobs — one
// "mode" event per streamed elementary flux mode, in append order. Seq
// is the 0-based position in the stream, Elapsed the seconds since
// submission.
type Event struct {
	Seq     int     `json:"seq"`
	Elapsed float64 `json:"elapsed"`
	Type    string  `json:"type"` // "state" | "progress" | "mode"
	State   string  `json:"state,omitempty"`
	Msg     string  `json:"msg,omitempty"`
	// Mode-event payload (Type == "mode"): the stream rank, the sorted
	// original reaction names carrying flux (as the result lists them),
	// and the exact objective value as a rational string.
	Rank    int      `json:"rank,omitempty"`
	Support []string `json:"support,omitempty"`
	Value   string   `json:"value,omitempty"`
}

// Job is one submitted computation. All accessors are safe from any
// goroutine; the manager owns the lifecycle.
type Job struct {
	// ID is the manager-assigned identifier; Key the content-addressed
	// request key shared by every identical submission.
	ID  string
	Key string

	req   Request
	latch *cluster.Latch
	// reserved is the job's memory-budget reservation against the
	// manager's MaxResidentBytes allowance. Written at admission and
	// read at release, both under the manager's lock.
	reserved int64

	mu       sync.Mutex
	change   chan struct{} // closed and replaced on every state/event append
	state    State
	events   []Event
	err      error
	result   *elmocomp.Result
	fp       uint64
	cached   bool
	coalesce int
	created  time.Time
	started  time.Time
	finished time.Time
}

// Status is a point-in-time snapshot of a job.
type Status struct {
	ID          string
	Key         string
	State       State
	Cached      bool
	Coalesced   int
	Err         error
	Modes       int
	Fingerprint uint64
	Created     time.Time
	Started     time.Time
	Finished    time.Time
	Events      int
}

func newJob(id, key string, req Request) *Job {
	j := &Job{
		ID:      id,
		Key:     key,
		req:     req,
		latch:   cluster.NewLatch(),
		change:  make(chan struct{}),
		created: time.Now(),
	}
	j.mu.Lock()
	j.appendEventLocked("state", StateQueued.String(), "")
	j.mu.Unlock()
	return j
}

// appendEventLocked records an event and wakes every stream waiter.
// Caller holds j.mu.
func (j *Job) appendEventLocked(typ, state, msg string) {
	j.appendLocked(Event{Type: typ, State: state, Msg: msg})
}

// appendLocked stamps sequence and elapsed time onto ev, appends it and
// wakes every stream waiter. Caller holds j.mu.
func (j *Job) appendLocked(ev Event) {
	ev.Seq = len(j.events)
	ev.Elapsed = time.Since(j.created).Seconds()
	j.events = append(j.events, ev)
	close(j.change)
	j.change = make(chan struct{})
}

// Progress records one driver progress line.
func (j *Job) Progress(msg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.appendEventLocked("progress", "", msg)
}

// Mode records one streamed on-demand mode as a "mode" event — the hook
// the manager installs as Config.OnMode so clients tailing the job's
// event stream see each mode the moment the generator emits it, long
// before the job completes.
func (j *Job) Mode(e elmocomp.ModeEvent) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.appendLocked(Event{Type: "mode", Rank: e.Rank, Support: e.Support, Value: e.Value})
}

// tryStart moves Queued → Running; it fails when the job was canceled
// while still queued (the worker then skips it).
func (j *Job) tryStart() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	j.appendEventLocked("state", StateRunning.String(), "")
	return true
}

// finalize moves the job into a terminal state exactly once.
func (j *Job) finalize(state State, res *elmocomp.Result, fp uint64, err error, note string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.finalizeLocked(state, res, fp, err, note)
}

func (j *Job) finalizeLocked(state State, res *elmocomp.Result, fp uint64, err error, note string) bool {
	if j.state.Terminal() {
		return false
	}
	j.state = state
	j.result = res
	j.fp = fp
	j.err = err
	j.finished = time.Now()
	msg := note
	if err != nil {
		if msg != "" {
			msg += ": "
		}
		msg += err.Error()
	}
	j.appendEventLocked("state", state.String(), msg)
	return true
}

// Request returns the submitted request. The request is immutable after
// submission.
func (j *Job) Request() Request { return j.req }

// State returns the current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Status snapshots the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:          j.ID,
		Key:         j.Key,
		State:       j.state,
		Cached:      j.cached,
		Coalesced:   j.coalesce,
		Err:         j.err,
		Fingerprint: j.fp,
		Created:     j.created,
		Started:     j.started,
		Finished:    j.finished,
		Events:      len(j.events),
	}
	if j.result != nil {
		st.Modes = j.result.Len()
	}
	return st
}

// Result returns the computed result once the job is done, and the
// job's error in the failed/canceled states.
func (j *Job) Result() (*elmocomp.Result, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case j.state == StateDone:
		return j.result, nil
	case j.err != nil:
		return nil, j.err
	default:
		return nil, ErrNotDone
	}
}

// Cancel trips the job's abort latch with the given cause. Running
// drivers observe the trip through their communicator group (or the
// serial engine's per-row poll) and unwind; a still-queued job is
// finalized in the same critical section that a worker's tryStart would
// use, so exactly one of the two wins. Returns whether the job was still
// queued when canceled, and whether the cancel changed anything (false
// for already-terminal jobs).
func (j *Job) Cancel(cause error) (wasQueued, changed bool) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return false, false
	}
	queued := j.state == StateQueued
	if queued {
		// Never started: no driver will observe the latch; finalize here.
		// The worker that pops it later sees the terminal state and skips.
		j.finalizeLocked(StateCanceled, nil, 0, &cluster.AbortError{Cause: cause}, "canceled while queued")
	}
	j.mu.Unlock()
	j.latch.Trip(cause)
	return queued, true
}

// CancelCause returns the latch cause, or nil if the job was never
// canceled.
func (j *Job) CancelCause() error { return j.latch.Cause() }

// Events returns the events from seq `from` on, plus whether the job is
// terminal (no more events will ever arrive).
func (j *Job) Events(from int) ([]Event, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if from < 0 {
		from = 0
	}
	if from > len(j.events) {
		from = len(j.events)
	}
	evs := append([]Event(nil), j.events[from:]...)
	return evs, j.state.Terminal()
}

// NextEvents blocks until at least one event past `from` exists or the
// job is terminal, then returns the new events and the terminal flag.
// It returns ctx.Err() when the context ends first.
func (j *Job) NextEvents(ctx context.Context, from int) ([]Event, bool, error) {
	for {
		j.mu.Lock()
		if len(j.events) > from || j.state.Terminal() {
			evs := append([]Event(nil), j.events[min(from, len(j.events)):]...)
			term := j.state.Terminal()
			j.mu.Unlock()
			return evs, term, nil
		}
		ch := j.change
		j.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
}

// Wait blocks until the job reaches a terminal state (returning the
// job's error, nil for Done) or ctx ends (returning ctx.Err()).
func (j *Job) Wait(ctx context.Context) error {
	from := 0
	for {
		evs, term, err := j.NextEvents(ctx, from)
		if err != nil {
			return err
		}
		if term {
			_, jerr := j.Result()
			if jerr == ErrNotDone {
				jerr = nil
			}
			return jerr
		}
		from += len(evs)
	}
}
