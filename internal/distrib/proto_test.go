package distrib

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"reflect"
	"testing"
	"time"

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

// withReservedResultByte returns a valid result frame whose reserved byte
// (after the type byte, the one-byte seq varint and the status) holds v.
func withReservedResultByte(v byte) []byte {
	body := encodeResult(&classResponse{Seq: 1, Status: statusOK}, []byte("EFMS"), 4)
	body[3] = v
	return body
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
	payload := []byte("EFMS-or-EFMC-payload-bytes")
	for _, st := range []status{statusOK, statusSkipped, statusBudget, statusMemBudget, statusError} {
		in := classResponse{
			Seq:           9,
			Status:        st,
			Error:         "boom",
			Pairs:         12345,
			PeakNodeBytes: 1 << 20,
			Supports:      payload,
		}
		body := encodeResult(&in, payload, 4*len(payload))
		got, rawLen, err := decodeResult(body)
		if err != nil {
			t.Fatalf("%s: %v", st, err)
		}
		if rawLen != int64(4*len(payload)) {
			t.Fatalf("%s: rawLen %d, want %d", st, rawLen, 4*len(payload))
		}
		if !reflect.DeepEqual(*got, in) {
			t.Fatalf("%s: round trip mangled:\n got %+v\nwant %+v", st, *got, in)
		}
	}
	body := encodeResult(&classResponse{Seq: 1, Status: statusOK}, payload, len(payload))
	for cut := 0; cut < len(body); cut++ {
		if _, _, err := decodeResult(body[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(body))
		}
	}
	// An unknown status byte is a protocol violation, not a guess.
	bad := append([]byte(nil), body...)
	bad[2] = 200
	if _, _, err := decodeResult(bad); err == nil {
		t.Fatal("unknown status byte accepted")
	}
	// The byte after the status was protocol 4's cached flag: no worker
	// of this build answers from a cache, so a peer setting it is refused.
	if _, _, err := decodeResult(withReservedResultByte(1)); err == nil {
		t.Fatal("result with a non-zero reserved byte accepted")
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

// TestPoolPipelinedPrefetch: with in-flight credit 2 and slow classes,
// the link must ship the next class while the worker computes the
// current one — the worker observes pipelining depth >= 2.
func TestPoolPipelinedPrefetch(t *testing.T) {
	spec, red, seq := toyJob(t)
	w := startWorker(t, WorkerOptions{DelayPerClass: 50 * time.Millisecond})
	pool := NewPool([]string{w.Addr()}, PoolOptions{ClassTimeout: 30 * time.Second, Inflight: 2})
	defer pool.Close()

	res, err := dnc.Run(red.N, red.Reversibilities(), dnc.Options{Qsub: 2, Remote: pool.Bind(spec)})
	if err != nil {
		t.Fatal(err)
	}
	if fp(res.Supports) != fp(seq.Supports) {
		t.Fatal("fingerprint differs under pipelining")
	}
	if res.Sched.RemoteClasses < 2 {
		t.Skipf("only %d remote classes; cannot observe pipelining", res.Sched.RemoteClasses)
	}
	if c := w.Counters(); c.MaxPipelined < 2 {
		t.Fatalf("MaxPipelined = %d, want >= 2 (credit 2 never overlapped transfer with compute)", c.MaxPipelined)
	}
}

// TestPoolWireAccounting: payload bytes are the request bodies plus the
// flat support payloads, wire bytes are every frame as it crossed, and the
// only thing that makes wire smaller than payload is result compression.
func TestPoolWireAccounting(t *testing.T) {
	// Toy classes return far less than wireCompressMin, so every byte of
	// both counters can be named.
	spec, _, seq := toyJob(t)
	w := startWorker(t, WorkerOptions{})
	pool := NewPool([]string{w.Addr()}, PoolOptions{ClassTimeout: 30 * time.Second})
	defer pool.Close()
	var payload, wire int64
	for id := uint64(0); id < 1<<uint(len(seq.Partition)); id++ {
		out, err := pool.Bind(spec).Run(0, dnc.RemoteClass{ID: id, Partition: seq.Partition}, nil)
		if err != nil {
			t.Fatalf("class %d: %v", id, err)
		}
		req := encodeClass(&classRequest{Seq: id + 1, Key: spec.Key, Network: spec.Network,
			Exec: spec.Exec, Partition: seq.Partition, Class: id})
		resp := &classResponse{Seq: id + 1, Status: statusSkipped}
		var flat []byte
		if !out.Skipped {
			resp.Status, resp.Pairs, resp.PeakNodeBytes = statusOK, out.Pairs, out.PeakNodeBytes
			flat = core.EncodeSupportList(out.Supports, spec.Q)
		}
		if len(flat) >= wireCompressMin {
			t.Fatalf("class %d returns %d support bytes: no longer a payload that must travel flat", id, len(flat))
		}
		payload += int64(len(req) + len(flat))
		wire += int64(len(req)+len(encodeResult(resp, flat, len(flat)))) + 2*cluster.FrameHeaderLen
	}
	if st := pool.Stats()[0]; st.PayloadBytes != payload || st.WireBytes != wire {
		t.Fatalf("link counted %d payload and %d wire bytes, the frames add up to %d and %d",
			st.PayloadBytes, st.WireBytes, payload, wire)
	}

	// A job whose classes return compressible payloads ships them
	// compressed, and the coordinator decodes them to the local result.
	n, err := synth.Network(synth.Params{Layers: 5, Width: 5, CrossLinks: 10, ReversibleFraction: 0.25, MaxCoef: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	big, red, local := jobOf(t, n)
	bigPool := NewPool([]string{w.Addr()}, PoolOptions{ClassTimeout: 30 * time.Second})
	defer bigPool.Close()
	res, err := dnc.Run(red.N, red.Reversibilities(), dnc.Options{Qsub: 2, Remote: bigPool.Bind(big)})
	if err != nil {
		t.Fatal(err)
	}
	if fp(res.Supports) != fp(local.Supports) {
		t.Fatalf("fingerprint %x after the wire, %x locally", fp(res.Supports), fp(local.Supports))
	}
	var largest int
	for _, sub := range res.Subproblems {
		largest = max(largest, len(core.EncodeSupportList(sub.Supports, big.Q)))
	}
	if largest < wireCompressMin {
		t.Fatalf("largest class returns %d support bytes, below wireCompressMin: the network proves nothing", largest)
	}
	if st := bigPool.Stats()[0]; st.WireBytes >= st.PayloadBytes {
		t.Fatalf("the link shipped %d wire bytes for %d payload bytes: result compression is not live", st.WireBytes, st.PayloadBytes)
	}
}
