// Package distrib is the coordinator/worker fabric of the distributed
// efmd deployment: one wire protocol for shipping divide-and-conquer
// classes to remote worker processes, and a connection pool implementing
// the scheduler's RemoteExecutor on top of it, one class per connection
// at a time. Nothing here decides where a class runs: classes are
// independent subproblems and every runner takes the class at the head
// of the scheduler's FIFO.
//
// The wire (this file). Every message is a frame of the cluster
// substrate's codec (cluster.WriteFrame: a 4-byte little-endian length,
// then the body). A connection opens with one JSON hello frame each way
// carrying the sender's protocol version; the versions must be equal,
// and a worker that disagrees answers with a hello whose error names
// both before closing. After the hello, bodies are binary: a type byte,
// then varints, raw float bits and length-prefixed byte strings.
//
//	class  0x01 seq flags key class depth |partition| partition...
//	       reserved maxModes workers nodes memBudget commTimeout network
//	result 0x02 seq status error pairs peakNodeBytes
//	       seconds genSeconds rankSeconds commSeconds mergeSeconds supports
//
// A class frame is the whole class: the worker takes everything it runs
// the class under from the frame it is executing, so no two frames depend
// on each other and a link holds no per-job state. The class flags byte:
// bit 0 always set (protocols 3 to 5 sent frames without the second line
// and cleared it), bit 1 strict memory budget, bit 2 keep duplicate
// reactions; a class with bit 0 clear or any other bit set is refused.
// The second line is the spec block, the wire image of the
// parallel.Options the class runs under: eight reserved zero bytes
// (protocol 3 carried a zero tolerance there; the block keeps its length
// because the payload bytes are pinned), then Core.MaxModes,
// Core.Workers, Nodes, Core.MemBudget and Timeout in seconds (what a
// remote class must share with a local one; the rest of that struct is
// process-local and never travels), then the network text. Supports
// travel as the core EFMS codec (core.EncodeSupportList), the one
// support-list format the job cache stores too: on links faster than
// ~40 Mb/s compressing them costs more CPU than it saves in transfer
// (DESIGN.md §15). A connection carries one class and then its one
// result, which echoes the class's seq; the five float fields are the
// worker's own clock on the class, from taking its run slot to the
// reply, and the phase times inside it (parallel.PhaseTimes). A job
// has one class at a time on each worker; jobs sharing a worker take
// turns on its run slot.
//
// The class layout is frozen: bench/expected.json pins the payload bytes
// it and the result supports add up to.
package distrib

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"

	"elmocomp/internal/cluster"
	"elmocomp/internal/parallel"
)

// protoVersion is the protocol this build speaks. Bump on any wire
// change; peers on another version are refused at hello.
const protoVersion = 8

// helloMaxFrame bounds the hello frame, read before the peer has proven
// it speaks the protocol at all.
const helloMaxFrame = 1 << 16

// hello is the frame each side sends once when a connection opens: the
// coordinator first, then the worker. Error is set only by a worker
// refusing the connection.
type hello struct {
	Proto int    `json:"proto"`
	Error string `json:"error,omitempty"`
}

func writeHello(w io.Writer, h hello) error {
	body, err := json.Marshal(h)
	if err != nil {
		return err
	}
	return cluster.WriteFrame(w, body)
}

func decodeHello(body []byte) (hello, error) {
	var h hello
	err := json.Unmarshal(body, &h)
	return h, err
}

func readHello(r io.Reader) (hello, error) {
	body, err := cluster.ReadFrame(r, helloMaxFrame)
	if err != nil {
		return hello{}, err
	}
	return decodeHello(body)
}

// mismatch is the refusal both ends report for a peer ("coordinator" or
// "worker") on another protocol version; it names both versions so an
// operator can tell which binary is stale.
func (h hello) mismatch(peer string) error {
	if h.Proto == protoVersion {
		return nil
	}
	return fmt.Errorf("distrib: %s speaks protocol %d, this build speaks protocol %d", peer, h.Proto, protoVersion)
}

// classRequest ships one divide-and-conquer class: the job's spec and
// the class coordinates. Seq numbers the link's requests and its
// response echoes it; Key
// is the job's content-addressed RequestKey, shared by every class of
// one job so the worker finds the network's reduction where the job's
// first class left it. Network is the canonical network text (the worker
// re-derives the identical reduction); Exec is the options the class
// runs under, of which only the fields appendSpec writes travel.
type classRequest struct {
	Seq uint64
	Key string

	Network        string
	Exec           parallel.Options
	KeepDuplicates bool

	Partition []int
	Class     uint64
	Depth     int
	StrictMem bool
}

// status is a class response's outcome byte. Budget overflows are
// statuses, not errors: they are the coordinator's re-split signal and
// must survive the wire with their exact identity.
type status byte

const (
	statusOK status = iota
	statusSkipped
	statusBudget
	statusMemBudget
	statusError
)

func (s status) String() string {
	return [...]string{"ok", "skipped", "budget", "membudget", "error"}[s]
}

type classResponse struct {
	Seq    uint64
	Status status
	Error  string

	Pairs         int64
	PeakNodeBytes int64
	// Seconds is the worker's clock on the class, from taking its run
	// slot to the reply; Phases are ExecClass's phase times inside it.
	Seconds float64
	Phases  parallel.PhaseTimes
	// Supports is the class's EFM supports over the reduced network's
	// columns in the EFMS form of core.EncodeSupportList.
	Supports []byte
}

// Message type bytes, the first byte of every frame body after the hello.
const (
	// msgClass carries one class request, coordinator to worker.
	msgClass = 0x01
	// msgResult carries one class response, worker to coordinator.
	msgResult = 0x02
)

// Class request flag bits. classHasSpec is set on every frame; every bit
// outside the mask is reserved and refused.
const (
	classHasSpec = 1 << iota
	classStrictMem
	classKeepDup
	classFlagMask = classHasSpec | classStrictMem | classKeepDup
)

func appendBytes(dst []byte, p []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(p)))
	return append(dst, p...)
}

func appendF64(dst []byte, v float64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	return append(dst, b[:]...)
}

// wireReader decodes a frame body with sticky error state, so decoders
// read straight through and check once.
type wireReader struct {
	b   []byte
	o   int
	err error
}

func (r *wireReader) fail(format string, args ...interface{}) {
	if r.err == nil {
		r.err = fmt.Errorf("distrib: "+format, args...)
	}
}

func (r *wireReader) u8() byte {
	if r.err != nil {
		return 0
	}
	if r.o >= len(r.b) {
		r.fail("frame truncated at byte %d", r.o)
		return 0
	}
	v := r.b[r.o]
	r.o++
	return v
}

func (r *wireReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.o:])
	if n <= 0 {
		r.fail("bad varint at byte %d", r.o)
		return 0
	}
	r.o += n
	return v
}

// intv reads a varint that must fit a non-negative int.
func (r *wireReader) intv() int {
	v := r.uvarint()
	if v > math.MaxInt32 {
		r.fail("varint %d out of int range", v)
		return 0
	}
	return int(v)
}

func (r *wireReader) f64() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.b)-r.o < 8 {
		r.fail("frame truncated in float at byte %d", r.o)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.o:]))
	r.o += 8
	return v
}

func (r *wireReader) bytes() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if uint64(len(r.b)-r.o) < n {
		r.fail("frame truncated in %d-byte field at byte %d", n, r.o)
		return nil
	}
	v := r.b[r.o : r.o+int(n)]
	r.o += int(n)
	return v
}

func (r *wireReader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.o != len(r.b) {
		return fmt.Errorf("distrib: frame has %d trailing bytes", len(r.b)-r.o)
	}
	return nil
}

// encodeClass serializes a class request.
func encodeClass(req *classRequest) []byte {
	out := make([]byte, 0, 96+len(req.Key)+len(req.Network))
	out = append(out, msgClass)
	out = binary.AppendUvarint(out, req.Seq)
	flags := byte(classHasSpec)
	if req.StrictMem {
		flags |= classStrictMem
	}
	if req.KeepDuplicates {
		flags |= classKeepDup
	}
	out = append(out, flags)
	out = appendBytes(out, []byte(req.Key))
	out = binary.AppendUvarint(out, req.Class)
	out = binary.AppendUvarint(out, uint64(req.Depth))
	out = binary.AppendUvarint(out, uint64(len(req.Partition)))
	for _, j := range req.Partition {
		out = binary.AppendUvarint(out, uint64(j))
	}
	out = appendSpec(out, &req.Exec)
	return appendBytes(out, []byte(req.Network))
}

// appendSpec writes the wire image of the options a class runs under.
// readSpec is its inverse; the two are the only places that know which
// fields of parallel.Options cross the link.
func appendSpec(out []byte, o *parallel.Options) []byte {
	out = appendF64(out, 0) // reserved
	out = binary.AppendUvarint(out, uint64(o.Core.MaxModes))
	out = binary.AppendUvarint(out, uint64(o.Core.Workers))
	out = binary.AppendUvarint(out, uint64(o.Nodes))
	out = binary.AppendUvarint(out, uint64(o.Core.MemBudget))
	return appendF64(out, o.Timeout.Seconds())
}

// readSpec inverts appendSpec, refusing sizes no coordinator of this
// repository sends: Nodes and Workers become allocation counts on the
// worker (a node mesh, a workspace pool), so a peer must not be able to
// name 2^31 of either. The reserved slot must be zero: a worker has one
// zero tolerance and a peer cannot hand it another.
func (r *wireReader) readSpec() (o parallel.Options) {
	reserved := math.Float64bits(r.f64())
	o.Core.MaxModes = r.intv()
	o.Core.Workers = r.intv()
	o.Nodes = r.intv()
	o.Core.MemBudget = int64(r.uvarint())
	sec := r.f64()
	switch {
	case r.err != nil:
	case reserved != 0:
		r.fail("class sets the reserved spec slot to %#x", reserved)
	case o.Nodes > parallel.MaxNodes:
		r.fail("class asks for %d nodes, limit %d", o.Nodes, parallel.MaxNodes)
	case o.Core.Workers > parallel.MaxWorkers:
		r.fail("class asks for %d workers, limit %d", o.Core.Workers, parallel.MaxWorkers)
	case !(sec >= 0 && sec <= parallel.MaxCommTimeout.Seconds()): // also refuses NaN
		r.fail("class carries a %g-second collective deadline", sec)
	}
	o.Timeout = time.Duration(math.Round(sec * float64(time.Second)))
	return o
}

// decodeClass inverts encodeClass.
func decodeClass(body []byte) (req classRequest, err error) {
	r := &wireReader{b: body}
	if t := r.u8(); t != msgClass {
		return req, fmt.Errorf("distrib: message type %#x is not a class request", t)
	}
	req.Seq = r.uvarint()
	flags := r.u8()
	if flags&^classFlagMask != 0 || flags&classHasSpec == 0 {
		r.fail("class request flags %#x: bit 0 must be set and bits 3 to 7 clear", flags)
	}
	req.Key = string(r.bytes())
	req.Class = r.uvarint()
	req.Depth = r.intv()
	np := r.intv()
	if r.err == nil && np > len(body) { // each partition entry is >= 1 byte
		return req, fmt.Errorf("distrib: class request claims %d partition entries in a %d-byte frame", np, len(body))
	}
	if r.err == nil {
		req.Partition = make([]int, np)
		for i := range req.Partition {
			req.Partition[i] = r.intv()
		}
	}
	req.StrictMem = flags&classStrictMem != 0
	req.KeepDuplicates = flags&classKeepDup != 0
	req.Exec = r.readSpec()
	req.Network = string(r.bytes())
	return req, r.done()
}

// encodeResult serializes a class response.
func encodeResult(resp *classResponse) []byte {
	out := make([]byte, 0, 32+len(resp.Error)+len(resp.Supports))
	out = append(out, msgResult)
	out = binary.AppendUvarint(out, resp.Seq)
	out = append(out, byte(resp.Status))
	out = appendBytes(out, []byte(resp.Error))
	out = binary.AppendUvarint(out, uint64(resp.Pairs))
	out = binary.AppendUvarint(out, uint64(resp.PeakNodeBytes))
	for _, v := range [...]float64{resp.Seconds, resp.Phases.GenCand, resp.Phases.RankTest, resp.Phases.Communicate, resp.Phases.Merge} {
		out = appendF64(out, v)
	}
	return appendBytes(out, resp.Supports)
}

// decodeResult inverts encodeResult.
func decodeResult(body []byte) (*classResponse, error) {
	r := &wireReader{b: body}
	if t := r.u8(); t != msgResult {
		return nil, fmt.Errorf("distrib: message type %#x is not a class result", t)
	}
	resp := &classResponse{}
	resp.Seq = r.uvarint()
	resp.Status = status(r.u8())
	if r.err == nil && resp.Status > statusError {
		return nil, fmt.Errorf("distrib: unknown status byte %d", byte(resp.Status))
	}
	resp.Error = string(r.bytes())
	resp.Pairs = int64(r.uvarint())
	resp.PeakNodeBytes = int64(r.uvarint())
	resp.Seconds = r.f64()
	resp.Phases = parallel.PhaseTimes{GenCand: r.f64(), RankTest: r.f64(), Communicate: r.f64(), Merge: r.f64()}
	if payload := r.bytes(); len(payload) > 0 {
		resp.Supports = payload
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return resp, nil
}
