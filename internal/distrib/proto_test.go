package distrib

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"elmocomp/internal/bitset"
	"elmocomp/internal/cluster"
	"elmocomp/internal/core"
	"elmocomp/internal/dnc"
	"elmocomp/internal/parallel"
	"elmocomp/internal/reduce"
	"elmocomp/internal/synth"
)

// fullClass sets every field of a class request that travels to a
// non-zero value; the codec round trip and the fuzz seeds share it.
var fullClass = classRequest{
	Seq:     42,
	Key:     "job-key",
	Network: "A -> B\nB -> C\n",
	Exec: parallel.Options{
		Core:    core.Options{MaxModes: 100, Workers: 3, MemBudget: 1 << 30},
		Nodes:   2,
		Timeout: 2500 * time.Millisecond,
	},
	KeepDuplicates: true,
	Partition:      []int{0, 3, 7},
	Class:          5,
	Depth:          2,
	StrictMem:      true,
}

// specBlockAt is the offset of the spec block in fullClass's frame: the
// block is the frame's tail, so its own length locates it.
func specBlockAt(body []byte) int {
	return len(body) - len(appendBytes(appendSpec(nil, &fullClass.Exec), []byte(fullClass.Network)))
}

// withReservedSlot returns fullClass's frame with the eight reserved
// bytes that open the spec block (protocol 3's zero tolerance) holding
// v's bit pattern.
func withReservedSlot(v float64) []byte {
	full := fullClass
	body := encodeClass(&full)
	binary.LittleEndian.PutUint64(body[specBlockAt(body):], math.Float64bits(v))
	return body
}

// withoutSpecBlock returns what protocols 3 to 5 sent for every class of
// a job after the first: fullClass's coordinates with flag bit 0 clear
// and no spec block.
func withoutSpecBlock() []byte {
	full := fullClass
	body := encodeClass(&full)
	body = body[:specBlockAt(body)]
	body[2] &^= classHasSpec
	return body
}

// v6Result returns a result frame in protocol 6's layout, which a worker
// of that build would answer with: a reserved byte after the status and
// the flat payload length before the supports.
func v6Result() []byte {
	one := bitset.New(3)
	one.Set(1)
	payload := core.EncodeSupportList([]bitset.Set{one}, 3)
	body := []byte{msgResult, 9, byte(statusOK), 0}
	body = appendBytes(body, nil)
	body = binary.AppendUvarint(body, 12345)
	body = binary.AppendUvarint(body, 1<<20)
	body = binary.AppendUvarint(body, uint64(len(payload)))
	return appendBytes(body, payload)
}

func TestClassCodecRoundTrip(t *testing.T) {
	full := fullClass
	body := encodeClass(&full)
	got, err := decodeClass(body)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, full) {
		t.Fatalf("round trip mangled:\n got %+v\nwant %+v", got, full)
	}

	// Every truncation of a valid frame must be rejected, never
	// misparsed into a valid request.
	for cut := 0; cut < len(body); cut++ {
		if _, err := decodeClass(body[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(body))
		}
	}
	if _, err := decodeClass(append(body, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	if _, err := decodeClass([]byte{msgResult, 0}); err == nil {
		t.Fatal("wrong message type accepted")
	}

	// A class frame is the whole class: flag bit 0 clear announces a frame
	// that leans on an earlier one for its options and network, which no
	// worker of this build remembers. Refused with or without the block.
	if _, err := decodeClass(withoutSpecBlock()); err == nil {
		t.Fatal("class without a spec block accepted")
	}
	cleared := append([]byte(nil), body...)
	cleared[2] &^= classHasSpec
	if _, err := decodeClass(cleared); err == nil {
		t.Fatal("class with flag bit 0 clear accepted")
	}

	// The flags byte follows the one-byte seq varint. Bits 3 and 4 were
	// protocol 2's tree-test and no-prefilter switches; a peer setting
	// them (or any other reserved bit) expects behaviour this build does
	// not have, so the class is refused, not run under other options.
	for bit := 3; bit < 8; bit++ {
		bad := append([]byte(nil), body...)
		bad[2] |= 1 << bit
		if _, err := decodeClass(bad); err == nil {
			t.Fatalf("class with reserved flag bit %d accepted", bit)
		}
	}

	// A worker has one zero tolerance: whatever a peer writes where
	// protocol 3 carried one is refused, not run under.
	if _, err := decodeClass(withReservedSlot(0)); err != nil {
		t.Fatalf("zero reserved slot refused: %v", err)
	}
	for _, v := range []float64{1e-9, 1e-5, math.NaN(), math.Copysign(0, -1)} {
		if _, err := decodeClass(withReservedSlot(v)); err == nil {
			t.Fatalf("class with %g in the reserved spec slot accepted", v)
		}
	}
}

// TestClassSpecLimits: the spec block's node and worker counts become
// allocation sizes on the worker and its deadline a Duration, so a frame
// naming more than any coordinator sends is refused at the codec — and
// everything server.RunOptions.Config() admits (its TestRunOptionsLimits
// names the same constants: zero values, and every field at its upper
// limit) decodes to the options it was encoded from, so no admitted
// request can make a worker drop its link over the class frame.
func TestClassSpecLimits(t *testing.T) {
	atLimit := parallel.Options{
		Core:    core.Options{MaxModes: math.MaxInt32, Workers: parallel.MaxWorkers, MemBudget: math.MaxInt64},
		Nodes:   parallel.MaxNodes,
		Timeout: parallel.MaxCommTimeout,
	}
	for name, tc := range map[string]struct {
		mutate func(*parallel.Options)
		ok     bool
	}{
		"zero":         {func(o *parallel.Options) { *o = parallel.Options{} }, true},
		"at-the-limit": {func(*parallel.Options) {}, true},
		"sub-second":   {func(o *parallel.Options) { o.Timeout = 1500 * time.Microsecond }, true},
		"nodes":        {func(o *parallel.Options) { o.Nodes++ }, false},
		"workers":      {func(o *parallel.Options) { o.Core.Workers++ }, false},
		"max-modes":    {func(o *parallel.Options) { o.Core.MaxModes++ }, false},
		"timeout":      {func(o *parallel.Options) { o.Timeout += time.Second }, false},
		"neg-timeout":  {func(o *parallel.Options) { o.Timeout = -time.Second }, false},
		"neg-workers":  {func(o *parallel.Options) { o.Core.Workers = -1 }, false},
		"neg-nodes":    {func(o *parallel.Options) { o.Nodes = -1 }, false},
	} {
		req := fullClass
		req.Exec = atLimit
		tc.mutate(&req.Exec)
		got, err := decodeClass(encodeClass(&req))
		if (err == nil) != tc.ok {
			t.Errorf("%s: decodeClass error = %v, want ok=%v", name, err, tc.ok)
		}
		if tc.ok && !reflect.DeepEqual(got.Exec, req.Exec) {
			t.Errorf("%s: spec round trip mangled:\n got %+v\nwant %+v", name, got.Exec, req.Exec)
		}
	}
}

func TestResultCodecRoundTrip(t *testing.T) {
	payload := []byte("EFMS-payload-bytes")
	for _, st := range []status{statusOK, statusSkipped, statusBudget, statusMemBudget, statusError} {
		in := classResponse{
			Seq:           9,
			Status:        st,
			Error:         "boom",
			Pairs:         12345,
			PeakNodeBytes: 1 << 20,
			Supports:      payload,
		}
		got, err := decodeResult(encodeResult(&in))
		if err != nil {
			t.Fatalf("%s: %v", st, err)
		}
		if !reflect.DeepEqual(*got, in) {
			t.Fatalf("%s: round trip mangled:\n got %+v\nwant %+v", st, *got, in)
		}
	}
	body := encodeResult(&classResponse{Seq: 1, Status: statusOK, Supports: payload})
	for cut := 0; cut < len(body); cut++ {
		if _, err := decodeResult(body[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(body))
		}
	}
	// An unknown status byte is a protocol violation, not a guess.
	bad := append([]byte(nil), body...)
	bad[2] = 200
	if _, err := decodeResult(bad); err == nil {
		t.Fatal("unknown status byte accepted")
	}
	// The hello keeps a protocol-6 worker off the link; were one let
	// through, its two extra fields would not parse as a result.
	if _, err := decodeResult(v6Result()); err == nil {
		t.Fatal("protocol 6 result accepted")
	}
}

// TestSpecInterningNeedSpec: what eviction from the reduction memo costs.
// Jobs A, B, A alternate on a worker whose memo holds one entry: nothing
// is retransmitted and no link suffers — every frame carries its network,
// so the worker reduces A's again and every class is served once.
func TestSpecInterningNeedSpec(t *testing.T) {
	specA, red, seq := toyJob(t)
	specB := specA
	specB.Key = "test-job-2"
	w, err := NewWorker("127.0.0.1:0", WorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w.jobs = newJobStore(1) // before Serve: no connection reads the field yet
	go w.Serve()
	t.Cleanup(func() { w.Close() })
	pool := NewPool([]string{w.Addr()}, PoolOptions{ClassTimeout: 30 * time.Second})
	defer pool.Close()

	var classes, perRound int64
	var memoA [3]*reduce.Reduced
	for round, spec := range []JobSpec{specA, specB, specA} {
		res, err := dnc.Run(red.N, red.Reversibilities(), dnc.Options{Qsub: 2, Remote: pool.Bind(spec)})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if fp(res.Supports) != fp(seq.Supports) {
			t.Fatalf("round %d: fingerprint differs", round)
		}
		classes += res.Sched.RemoteClasses
		perRound = res.Sched.RemoteClasses
		if spec.Key == specA.Key {
			memoA[round] = memoOf(t, w, spec.Key)
		} else if _, held := w.jobs.Get(specA.Key); held {
			t.Fatal("job B did not evict job A from a memo of one")
		}
	}
	if memoA[0] == memoA[2] {
		t.Fatal("job A's third round ran on its first round's reduction though the memo had evicted it")
	}
	if got := w.Counters().Served; got != classes || classes != 3*perRound {
		t.Fatalf("worker served %d classes, the scheduler counted %d, want 3 x %d", got, classes, perRound)
	}
	if st := pool.Stats()[0]; !st.Alive || st.Failures != 0 {
		t.Fatalf("eviction cost the link: %+v", st)
	}
}

// TestWorkerRefusesReservedSpecSlot: a class frame with a non-zero
// reserved slot costs its sender the connection and nothing else — the
// worker keeps serving the links beside it.
func TestWorkerRefusesReservedSpecSlot(t *testing.T) {
	spec, red, seq := toyJob(t)
	w := startWorker(t, WorkerOptions{})
	pool := NewPool([]string{w.Addr()}, PoolOptions{ClassTimeout: 30 * time.Second})
	defer pool.Close()
	runJob := func(stage string) {
		t.Helper()
		res, err := dnc.Run(red.N, red.Reversibilities(), dnc.Options{Qsub: 2, Remote: pool.Bind(spec)})
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		if fp(res.Supports) != fp(seq.Supports) || res.Sched.RemoteClasses == 0 {
			t.Fatalf("%s: fingerprint %x (want %x), %d remote classes", stage, fp(res.Supports), fp(seq.Supports), res.Sched.RemoteClasses)
		}
	}
	runJob("before the bad frame")

	conn, err := net.DialTimeout("tcp", w.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := writeHello(conn, hello{Proto: protoVersion}); err != nil {
		t.Fatal(err)
	}
	if resp, err := readHello(conn); err != nil || resp.Error != "" {
		t.Fatalf("hello answered %+v, %v", resp, err)
	}
	if err := cluster.WriteFrame(conn, withReservedSlot(1e-5)); err != nil {
		t.Fatal(err)
	}
	if body, err := cluster.ReadFrame(conn, cluster.MaxFrame); !errors.Is(err, io.EOF) {
		t.Fatalf("worker answered the refused frame with %d bytes, %v; want a closed connection", len(body), err)
	}

	runJob("after the bad frame")
	if st := pool.Stats()[0]; !st.Alive {
		t.Fatal("the pool's link was severed by another link's bad frame")
	}
}

// TestPoolSharedWorkerClock: two jobs share a one-worker pool, as the
// jobs of efmd -coordinator -concurrency 2 do, so a class of one job can
// wait on the worker's run slot behind the other's. Each class is still
// timed as the worker ran it: its 50 ms and a toy class's compute, never
// that wait. The wait shows in the call around it instead: every class's
// call_seconds covers its seconds, and some class waited a whole class
// of the other job.
func TestPoolSharedWorkerClock(t *testing.T) {
	specA, red, seq := toyJob(t)
	specB := specA
	specB.Key = "test-job-2"
	w := startWorker(t, WorkerOptions{DelayPerClass: 50 * time.Millisecond})
	pool := NewPool([]string{w.Addr()}, PoolOptions{ClassTimeout: 30 * time.Second})
	defer pool.Close()

	results := make([]*dnc.Result, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i, spec := range []JobSpec{specA, specB} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = dnc.Run(red.N, red.Reversibilities(), dnc.Options{Qsub: 2, Remote: pool.Bind(spec)})
		}()
	}
	wg.Wait()
	var maxWait float64
	for i, res := range results {
		if errs[i] != nil {
			t.Fatalf("job %d: %v", i, errs[i])
		}
		if fp(res.Supports) != fp(seq.Supports) {
			t.Fatalf("job %d: fingerprint differs on a shared worker", i)
		}
		if res.Sched.RemoteClasses != 4 || res.Sched.RemoteRequeues != 0 {
			t.Fatalf("job %d: %d remote classes, %d requeues; want 4 and 0", i, res.Sched.RemoteClasses, res.Sched.RemoteRequeues)
		}
		for _, c := range res.Sched.Classes {
			if c.Seconds < 0.050 || c.Seconds > 0.075 {
				t.Errorf("job %d class %s: %.3fs, want 0.050-0.075s (the worker's own time on it)", i, c.Label, c.Seconds)
			}
			if !(c.Seconds > 0 && c.Seconds <= c.CallSeconds) {
				t.Errorf("job %d class %s: seconds %.6f, call_seconds %.6f; want 0 < seconds <= call_seconds", i, c.Label, c.Seconds, c.CallSeconds)
			}
			if c.Worker != w.Addr() {
				t.Errorf("job %d class %s: worker %q, want %q", i, c.Label, c.Worker, w.Addr())
			}
			maxWait = max(maxWait, c.CallSeconds-c.Seconds)
		}
	}
	if maxWait < 0.045 {
		t.Fatalf("largest call_seconds - seconds is %.3fs; want >= 0.045s, the wait behind the other job's class", maxWait)
	}
}

// TestPoolWireAccounting: every byte both link counters count is named.
// Payload bytes are the request bodies plus the support payloads; wire
// bytes are those, a length prefix on each of a class's two frames and
// the result frame's header fields, nothing else. The toy job's classes
// return a few dozen support bytes each; the synthetic job's largest
// returns more than 512, the size from which protocol 6 shipped a result
// compressed. Both ship flat and add up to the local result.
func TestPoolWireAccounting(t *testing.T) {
	w := startWorker(t, WorkerOptions{})
	n, err := synth.Network(synth.Params{Layers: 5, Width: 5, CrossLinks: 10, ReversibleFraction: 0.25, MaxCoef: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	toy, _, toyLocal := toyJob(t)
	big, _, bigLocal := jobOf(t, n)
	for _, job := range []struct {
		name       string
		spec       JobSpec
		local      *dnc.Result
		minLargest int // support bytes the largest class must at least return
	}{
		{"toy", toy, toyLocal, 0},
		{"synthetic", big, bigLocal, 512},
	} {
		t.Run(job.name, func(t *testing.T) {
			spec, partition := job.spec, job.local.Partition
			pool := NewPool([]string{w.Addr()}, PoolOptions{ClassTimeout: 30 * time.Second})
			defer pool.Close()
			classes := uint64(1) << uint(len(partition))
			var payload, headers int64
			var largest int
			var supports []bitset.Set
			for id := uint64(0); id < classes; id++ {
				out, err := pool.Bind(spec).Run(0, dnc.RemoteClass{ID: id, Partition: partition}, nil)
				if err != nil {
					t.Fatalf("class %d: %v", id, err)
				}
				req := encodeClass(&classRequest{Seq: id + 1, Key: spec.Key, Network: spec.Network,
					Exec: spec.Exec, KeepDuplicates: spec.KeepDuplicates, Partition: partition, Class: id})
				resp := &classResponse{Seq: id + 1, Status: statusSkipped}
				if !out.Skipped {
					resp.Status, resp.Pairs, resp.PeakNodeBytes = statusOK, out.Pairs, out.PeakNodeBytes
					resp.Supports = core.EncodeSupportList(out.Supports, spec.Q)
					supports = append(supports, out.Supports...)
				}
				largest = max(largest, len(resp.Supports))
				payload += int64(len(req) + len(resp.Supports))
				headers += int64(len(encodeResult(resp)) - len(resp.Supports))
			}
			st := pool.Stats()[0]
			if st.PayloadBytes != payload {
				t.Fatalf("link counted %d payload bytes, the request bodies and supports add up to %d", st.PayloadBytes, payload)
			}
			if want := st.PayloadBytes + 2*cluster.FrameHeaderLen*int64(classes) + headers; st.WireBytes != want {
				t.Fatalf("link counted %d wire bytes, want %d payload + %d frame-length + %d result-header bytes = %d",
					st.WireBytes, st.PayloadBytes, 2*cluster.FrameHeaderLen*int64(classes), headers, want)
			}
			slices.SortFunc(supports, bitset.Set.Compare)
			if fp(supports) != fp(job.local.Supports) {
				t.Fatalf("fingerprint %x after the wire, %x locally", fp(supports), fp(job.local.Supports))
			}
			if largest < job.minLargest {
				t.Fatalf("largest class returns %d support bytes, want at least %d", largest, job.minLargest)
			}
		})
	}
}
