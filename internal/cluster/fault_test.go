package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// makeGroup builds a group over the named transport with options.
func makeGroup(t *testing.T, transport string, n int, opts Options) []Comm {
	t.Helper()
	switch transport {
	case "inproc":
		return NewInProcOpts(n, opts)
	case "tcp":
		comms, err := NewTCPGroupOpts(n, opts)
		if err != nil {
			t.Fatal(err)
		}
		return comms
	default:
		t.Fatalf("unknown transport %q", transport)
		return nil
	}
}

// waitOrWedge fails the test if done does not close within d — the
// assertion that a failure path costs bounded time, not a deadlock.
func waitOrWedge(t *testing.T, done chan struct{}, d time.Duration, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("wedged: %s did not finish within %v", what, d)
	}
}

func TestAbortUnblocksPendingRecv(t *testing.T) {
	for _, tr := range []string{"inproc", "tcp"} {
		t.Run(tr, func(t *testing.T) {
			comms := makeGroup(t, tr, 3, Options{})
			defer closeAll(comms)
			cause := errors.New("node exploded")
			errsCh := make(chan error, 2)
			done := make(chan struct{})
			var wg sync.WaitGroup
			for _, r := range []int{1, 2} {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					_, err := comms[r].recv(0) // no message is ever sent
					errsCh <- err
				}(r)
			}
			go func() { wg.Wait(); close(done) }()
			time.Sleep(10 * time.Millisecond) // let both block
			comms[0].Abort(cause)
			waitOrWedge(t, done, 10*time.Second, "pending Recvs after Abort")
			close(errsCh)
			for err := range errsCh {
				if !errors.Is(err, ErrAborted) {
					t.Errorf("pending Recv returned %v, want ErrAborted", err)
				}
				if !errors.Is(err, cause) {
					t.Errorf("abort cause not wrapped: %v", err)
				}
			}
			// Future operations fail fast too.
			if err := comms[1].send(2, []byte("x")); !errors.Is(err, ErrAborted) {
				t.Errorf("post-abort Send returned %v, want ErrAborted", err)
			}
		})
	}
}

func TestAbortUnblocksPendingSend(t *testing.T) {
	// A sender blocked on a full in-process link must unblock on abort.
	comms := NewInProcOpts(2, Options{Buffered: 1})
	defer closeAll(comms)
	done := make(chan struct{})
	var sendErr error
	go func() {
		defer close(done)
		for i := 0; i < 3; i++ { // capacity 1: blocks on the second send
			if sendErr = comms[0].send(1, []byte{byte(i)}); sendErr != nil {
				return
			}
		}
	}()
	time.Sleep(10 * time.Millisecond)
	comms[1].Abort(errors.New("stop"))
	waitOrWedge(t, done, 10*time.Second, "blocked Send after Abort")
	if !errors.Is(sendErr, ErrAborted) {
		t.Fatalf("blocked Send returned %v, want ErrAborted", sendErr)
	}
}

func TestCollectiveTimeoutAbortsGroup(t *testing.T) {
	// Rank 2 never enters the collective: the group deadline must fail
	// the present ranks (and the whole group) in bounded time.
	for _, tr := range []string{"inproc", "tcp"} {
		t.Run(tr, func(t *testing.T) {
			comms := makeGroup(t, tr, 3, Options{Timeout: 100 * time.Millisecond})
			defer closeAll(comms)
			errsCh := make(chan error, 2)
			done := make(chan struct{})
			var wg sync.WaitGroup
			for _, r := range []int{0, 1} {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					_, err := comms[r].Allgather([]byte{byte(r)})
					errsCh <- err
				}(r)
			}
			go func() { wg.Wait(); close(done) }()
			waitOrWedge(t, done, 10*time.Second, "allgather with a missing peer")
			close(errsCh)
			for err := range errsCh {
				if !errors.Is(err, ErrTimeout) || !errors.Is(err, ErrAborted) {
					t.Errorf("got %v, want ErrTimeout and ErrAborted", err)
				}
			}
			// The missing rank's later call fails fast: the group is dead.
			if _, err := comms[2].Allgather(nil); !errors.Is(err, ErrAborted) {
				t.Errorf("late joiner got %v, want ErrAborted", err)
			}
		})
	}
}

// driverRound mimics the distributed driver's per-node loop: rounds of
// allgather, tripping the group abort on the first error — the
// propagation contract parallel.Run implements.
func driverRound(c Comm, rounds int) error {
	for i := 0; i < rounds; i++ {
		if _, err := c.Allgather([]byte{byte(c.Rank()), byte(i)}); err != nil {
			c.Abort(err)
			return err
		}
	}
	return nil
}

func TestInjectedCrashFailsGroupBounded(t *testing.T) {
	// The acceptance scenario: one node dies at collective K; every node
	// must return an error in bounded time on both transports, for
	// several node counts.
	for _, tr := range []string{"inproc", "tcp"} {
		for _, n := range []int{2, 3, 5} {
			t.Run(fmt.Sprintf("%s/n=%d", tr, n), func(t *testing.T) {
				comms := makeGroup(t, tr, n, Options{})
				defer closeAll(comms)
				faulty := WrapFaulty(comms, FaultPlan{FailRank: n - 1, FailCollective: 2})
				errs := make([]error, n)
				done := make(chan struct{})
				var wg sync.WaitGroup
				for r := 0; r < n; r++ {
					wg.Add(1)
					go func(r int) {
						defer wg.Done()
						errs[r] = driverRound(faulty[r], 5)
					}(r)
				}
				go func() { wg.Wait(); close(done) }()
				waitOrWedge(t, done, 30*time.Second, "group with a crashed node")
				if !errors.Is(errs[n-1], ErrInjected) {
					t.Errorf("crashed rank returned %v, want ErrInjected", errs[n-1])
				}
				for r := 0; r < n-1; r++ {
					if errs[r] == nil {
						// A peer may legitimately finish round 1 before the
						// crash at round 2 only if it errors later; with 5
						// rounds everyone must see the abort.
						t.Errorf("rank %d returned nil, want an abort error", r)
					} else if !errors.Is(errs[r], ErrAborted) {
						t.Errorf("rank %d returned %v, want ErrAborted", r, errs[r])
					}
				}
			})
		}
	}
}

func TestDroppedMessageTimesOutNotWedges(t *testing.T) {
	// A lossy link loses rank 0's first message to rank 1: without the
	// group deadline the receiver would wait forever.
	for _, tr := range []string{"inproc", "tcp"} {
		t.Run(tr, func(t *testing.T) {
			comms := makeGroup(t, tr, 2, Options{Timeout: 100 * time.Millisecond})
			defer closeAll(comms)
			faulty := WrapFaulty(comms, FaultPlan{Drop: []DropRule{{From: 0, To: 1, Nth: 1}}})
			errs := make([]error, 2)
			done := make(chan struct{})
			var wg sync.WaitGroup
			for r := 0; r < 2; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					_, errs[r] = faulty[r].Allgather([]byte{byte(r)})
				}(r)
			}
			go func() { wg.Wait(); close(done) }()
			waitOrWedge(t, done, 10*time.Second, "allgather over a lossy link")
			if !errors.Is(errs[1], ErrTimeout) {
				t.Errorf("receiver of the dropped message got %v, want ErrTimeout", errs[1])
			}
		})
	}
}

func TestDelayedDeliveryStillCorrect(t *testing.T) {
	// A slow link delays but does not corrupt: the collective completes
	// with the right payloads.
	comms := NewInProc(3, 0)
	defer closeAll(comms)
	faulty := WrapFaulty(comms, FaultPlan{Delay: 5 * time.Millisecond, DelayFrom: -1, DelayTo: -1})
	results := make([][][]byte, 3)
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			out, err := faulty[r].Allgather([]byte{byte(r), byte(r * 3)})
			if err != nil {
				t.Errorf("rank %d: %v", r, err)
				return
			}
			results[r] = out
		}(r)
	}
	wg.Wait()
	for r := 0; r < 3; r++ {
		for s := 0; s < 3; s++ {
			if want := []byte{byte(s), byte(s * 3)}; !bytes.Equal(results[r][s], want) {
				t.Fatalf("rank %d payload from %d = %v, want %v", r, s, results[r][s], want)
			}
		}
	}
}

func TestFailOpMidCollective(t *testing.T) {
	// A crash between the sends and receives of one collective: peers
	// are left partially delivered and must still be released.
	comms := NewInProc(3, 0)
	defer closeAll(comms)
	faulty := WrapFaulty(comms, FaultPlan{FailRank: 0, FailOp: 3})
	errs := make([]error, 3)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = driverRound(faulty[r], 3)
		}(r)
	}
	go func() { wg.Wait(); close(done) }()
	waitOrWedge(t, done, 10*time.Second, "group with a mid-collective crash")
	if !errors.Is(errs[0], ErrInjected) {
		t.Errorf("crashed rank returned %v, want ErrInjected", errs[0])
	}
	for _, r := range []int{1, 2} {
		if errs[r] == nil || !errors.Is(errs[r], ErrAborted) {
			t.Errorf("rank %d returned %v, want ErrAborted", r, errs[r])
		}
	}
}

func TestAbortErrorIdentity(t *testing.T) {
	cause := fmt.Errorf("wrapped: %w", ErrTimeout)
	var err error = &AbortError{Cause: cause}
	if !errors.Is(err, ErrAborted) {
		t.Error("AbortError does not match ErrAborted")
	}
	if !errors.Is(err, ErrTimeout) {
		t.Error("AbortError does not expose its cause chain")
	}
	var ae *AbortError
	if !errors.As(err, &ae) || ae.Cause != cause {
		t.Error("errors.As(AbortError) failed")
	}
	if (&AbortError{}).Error() != ErrAborted.Error() {
		t.Error("causeless AbortError message wrong")
	}
}
