package cluster

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// transports under test.
var transports = []struct {
	name string
	make func(n int) ([]Comm, error)
}{
	{"inproc", func(n int) ([]Comm, error) { return NewInProc(n, 0), nil }},
	{"tcp", NewTCPGroup},
}

func closeAll(comms []Comm) {
	for _, c := range comms {
		c.Close()
	}
}

func TestRankAndSize(t *testing.T) {
	for _, tr := range transports {
		comms, err := tr.make(3)
		if err != nil {
			t.Fatalf("%s: %v", tr.name, err)
		}
		for r, c := range comms {
			if c.Rank() != r || c.Size() != 3 {
				t.Errorf("%s: rank/size wrong: %d/%d", tr.name, c.Rank(), c.Size())
			}
		}
		closeAll(comms)
	}
}

func TestSendRecvOrdering(t *testing.T) {
	for _, tr := range transports {
		comms, err := tr.make(2)
		if err != nil {
			t.Fatalf("%s: %v", tr.name, err)
		}
		const msgs = 50
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < msgs; i++ {
				if err := comms[0].send(1, []byte(fmt.Sprintf("msg-%03d", i))); err != nil {
					t.Errorf("%s: send: %v", tr.name, err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < msgs; i++ {
				got, err := comms[1].recv(0)
				if err != nil {
					t.Errorf("%s: recv: %v", tr.name, err)
					return
				}
				want := fmt.Sprintf("msg-%03d", i)
				if string(got) != want {
					t.Errorf("%s: out of order: got %q want %q", tr.name, got, want)
					return
				}
			}
		}()
		wg.Wait()
		if comms[0].MessagesSent() != msgs {
			t.Errorf("%s: MessagesSent = %d, want %d", tr.name, comms[0].MessagesSent(), msgs)
		}
		closeAll(comms)
	}
}

func TestInvalidRanks(t *testing.T) {
	comms := NewInProc(2, 0)
	defer closeAll(comms)
	if err := comms[0].send(2, nil); err == nil {
		t.Error("send to out-of-range rank succeeded")
	}
	if err := comms[0].send(0, nil); err == nil {
		t.Error("self-send succeeded")
	}
	if _, err := comms[0].recv(-1); err == nil {
		t.Error("recv from negative rank succeeded")
	}
}

func TestAllgather(t *testing.T) {
	for _, tr := range transports {
		for _, n := range []int{1, 2, 3, 5} {
			comms, err := tr.make(n)
			if err != nil {
				t.Fatalf("%s: %v", tr.name, err)
			}
			results := make([][][]byte, n)
			var wg sync.WaitGroup
			for r := 0; r < n; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					out, err := comms[r].Allgather([]byte{byte(r), byte(r * 2)})
					if err != nil {
						t.Errorf("%s: allgather rank %d: %v", tr.name, r, err)
						return
					}
					results[r] = out
				}(r)
			}
			wg.Wait()
			for r := 0; r < n; r++ {
				if len(results[r]) != n {
					t.Fatalf("%s: rank %d got %d payloads", tr.name, r, len(results[r]))
				}
				for s := 0; s < n; s++ {
					want := []byte{byte(s), byte(s * 2)}
					if !bytes.Equal(results[r][s], want) {
						t.Fatalf("%s: rank %d payload from %d = %v, want %v",
							tr.name, r, s, results[r][s], want)
					}
				}
			}
			closeAll(comms)
		}
	}
}

func TestAllgatherRepeatedRounds(t *testing.T) {
	// Many rounds back-to-back: exercises buffering and ordering when
	// fast nodes run ahead.
	comms := NewInProc(4, 2)
	defer closeAll(comms)
	const rounds = 200
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				out, err := comms[r].Allgather([]byte{byte(round), byte(r)})
				if err != nil {
					t.Errorf("rank %d round %d: %v", r, round, err)
					return
				}
				for s, msg := range out {
					if msg[0] != byte(round) || msg[1] != byte(s) {
						t.Errorf("rank %d round %d: payload from %d = %v", r, round, s, msg)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
}

func TestByteAccounting(t *testing.T) {
	comms := NewInProc(2, 0)
	defer closeAll(comms)
	done := make(chan struct{})
	go func() {
		defer close(done)
		comms[1].recv(0)
		comms[1].recv(0)
	}()
	comms[0].send(1, make([]byte, 100))
	comms[0].send(1, make([]byte, 23))
	<-done
	if got := comms[0].BytesSent(); got != 123 {
		t.Fatalf("BytesSent = %d, want 123", got)
	}
	if got := comms[0].MessagesSent(); got != 2 {
		t.Fatalf("MessagesSent = %d, want 2", got)
	}
	g := StatsOf(comms)
	if g.Bytes != 123 || g.Messages != 2 {
		t.Fatalf("group stats = %+v", g)
	}
}

func TestAllgatherDoesNotAliasLocal(t *testing.T) {
	// The receiver owns every returned slice — including out[rank] and
	// the copies delivered to peers. Mutating them must not corrupt the
	// sender's buffer or a later round.
	comms := NewInProc(2, 0)
	defer closeAll(comms)
	locals := [][]byte{[]byte{10, 11}, []byte{20, 21}}
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			out, err := comms[r].Allgather(locals[r])
			if err != nil {
				t.Errorf("rank %d: %v", r, err)
				return
			}
			for s := range out { // scribble over everything we received
				for i := range out[s] {
					out[s][i] = 0xFF
				}
			}
		}(r)
	}
	wg.Wait()
	for r := 0; r < 2; r++ {
		if want := []byte{byte(10 * (r + 1)), byte(10*(r+1) + 1)}; !bytes.Equal(locals[r], want) {
			t.Fatalf("rank %d local buffer corrupted by receiver writes: %v, want %v", r, locals[r], want)
		}
	}
	// A second round still sees the pristine payloads.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			out, err := comms[r].Allgather(locals[r])
			if err != nil {
				t.Errorf("rank %d round 2: %v", r, err)
				return
			}
			for s := 0; s < 2; s++ {
				if want := []byte{byte(10 * (s + 1)), byte(10*(s+1) + 1)}; !bytes.Equal(out[s], want) {
					t.Errorf("rank %d round 2 payload from %d = %v, want %v", r, s, out[s], want)
				}
			}
		}(r)
	}
	wg.Wait()
}

func TestWireByteAccounting(t *testing.T) {
	// In-process delivery has no framing: wire == payload.
	inproc := NewInProc(2, 0)
	done := make(chan struct{})
	go func() { defer close(done); inproc[1].recv(0) }()
	inproc[0].send(1, make([]byte, 100))
	<-done
	if got := inproc[0].WireBytesSent(); got != 100 {
		t.Errorf("inproc WireBytesSent = %d, want 100", got)
	}
	closeAll(inproc)

	// TCP pays the 4-byte length header per message.
	comms, err := NewTCPGroup(2)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(comms)
	done = make(chan struct{})
	go func() {
		defer close(done)
		comms[1].recv(0)
		comms[1].recv(0)
	}()
	comms[0].send(1, make([]byte, 100))
	comms[0].send(1, make([]byte, 23))
	<-done
	if got := comms[0].BytesSent(); got != 123 {
		t.Errorf("tcp BytesSent = %d, want 123 (payload only)", got)
	}
	if got := comms[0].WireBytesSent(); got != 123+2*FrameHeaderLen {
		t.Errorf("tcp WireBytesSent = %d, want %d", got, 123+2*FrameHeaderLen)
	}
	g := StatsOf(comms)
	if g.Bytes != 123 || g.WireBytes != 123+2*FrameHeaderLen || g.Messages != 2 {
		t.Errorf("group stats = %+v", g)
	}
}

func TestCloseUnblocksRecv(t *testing.T) {
	comms := NewInProc(2, 0)
	errc := make(chan error, 1)
	go func() {
		_, err := comms[0].recv(1)
		errc <- err
	}()
	comms[0].Close()
	if err := <-errc; err == nil {
		t.Fatal("Recv returned nil error after Close")
	}
}

func TestSingleNodeGroup(t *testing.T) {
	comms := NewInProc(1, 0)
	defer closeAll(comms)
	out, err := comms[0].Allgather([]byte("x"))
	if err != nil || len(out) != 1 || string(out[0]) != "x" {
		t.Fatalf("1-node allgather: %v %v", out, err)
	}
}

func TestTCPLargeMessage(t *testing.T) {
	comms, err := NewTCPGroup(2)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(comms)
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	done := make(chan []byte, 1)
	go func() {
		msg, _ := comms[1].recv(0)
		done <- msg
	}()
	if err := comms[0].send(1, payload); err != nil {
		t.Fatal(err)
	}
	got := <-done
	if !bytes.Equal(got, payload) {
		t.Fatal("1MB payload corrupted in transit")
	}
}
