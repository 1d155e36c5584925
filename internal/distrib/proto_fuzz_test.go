package distrib

import (
	"bytes"
	"encoding/json"
	"testing"

	"elmocomp/internal/parallel"
)

// FuzzDecodeFrame hammers every decoder that takes bytes off the network
// — class, result and the hello — with mutated frame bodies.
// None may panic; whatever one accepts must re-encode to a frame that
// decodes to the same value (compared through the canonical encoding, so
// NaN floats and non-minimal varints in the input are no obstacle); and
// nothing a decoder builds may be larger than the input it was handed,
// whatever a length field claims. Each binary decoder accepts its own type
// byte and no other: after the hello there are two messages.
func FuzzDecodeFrame(f *testing.F) {
	full := fullClass
	f.Add(encodeClass(&full))
	payload := []byte("EFMS-or-EFMC-payload-bytes")
	f.Add(encodeResult(&classResponse{Seq: 9, Status: statusError, Error: "boom", Pairs: 12345,
		PeakNodeBytes: 1 << 20}, payload, 4*len(payload)))
	f.Add(encodeResult(&classResponse{Seq: 1, Status: statusOK}, nil, 0))
	for _, h := range []hello{{Proto: protoVersion}, {Proto: protoVersion, Error: "peer speaks protocol 1"}} {
		body, err := json.Marshal(h)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	// Frames the decoder must refuse: sizes that would become allocation
	// counts on the worker, a protocol-2 flag bit, a protocol-3 tolerance
	// in the reserved spec slot, a protocol-4 cached flag in the result's
	// reserved byte, and protocol 5's class without a spec block and its
	// need-spec message.
	for _, mutate := range []func(*classRequest){
		func(r *classRequest) { r.Exec.Nodes = 200000 },
		func(r *classRequest) { r.Exec.Core.Workers = 50000000 },
	} {
		huge := fullClass
		mutate(&huge)
		f.Add(encodeClass(&huge))
	}
	treeBit := encodeClass(&full)
	treeBit[2] |= 1 << 3
	f.Add(treeBit)
	f.Add(withReservedSlot(1e-9))
	f.Add(withReservedResultByte(1))
	f.Add(withoutSpecBlock())
	f.Add(appendBytes([]byte{0x03, 77}, []byte("some-job-key")))

	f.Fuzz(func(t *testing.T, b []byte) {
		if req, err := decodeClass(b); err == nil {
			if b[0] != msgClass {
				t.Fatalf("frame of type %#x accepted as a class", b[0])
			}
			if len(req.Partition) > len(b) || len(req.Key)+len(req.Network) > len(b) {
				t.Fatalf("class decoded from %d bytes holds %d partition entries, %d key and %d network bytes",
					len(b), len(req.Partition), len(req.Key), len(req.Network))
			}
			if req.Exec.Nodes > parallel.MaxNodes || req.Exec.Core.Workers > parallel.MaxWorkers {
				t.Fatalf("class accepted with %d nodes and %d workers", req.Exec.Nodes, req.Exec.Core.Workers)
			}
			enc := encodeClass(&req)
			again, err := decodeClass(enc)
			if err != nil {
				t.Fatalf("re-encoded class rejected: %v", err)
			}
			if !bytes.Equal(encodeClass(&again), enc) {
				t.Fatalf("class does not round-trip:\n first %+v\nsecond %+v", req, again)
			}
		}
		if resp, raw, err := decodeResult(b); err == nil {
			if b[0] != msgResult {
				t.Fatalf("frame of type %#x accepted as a result", b[0])
			}
			if len(resp.Error)+len(resp.Supports) > len(b) {
				t.Fatalf("result decoded from %d bytes holds %d error and %d support bytes",
					len(b), len(resp.Error), len(resp.Supports))
			}
			enc := encodeResult(resp, resp.Supports, int(raw))
			again, againRaw, err := decodeResult(enc)
			if err != nil {
				t.Fatalf("re-encoded result rejected: %v", err)
			}
			if againRaw != raw || !bytes.Equal(encodeResult(again, again.Supports, int(againRaw)), enc) {
				t.Fatalf("result does not round-trip:\n first %+v\nsecond %+v", resp, again)
			}
		}
		if h, err := decodeHello(b); err == nil {
			enc, err := json.Marshal(h)
			if err != nil {
				t.Fatalf("accepted hello %+v does not marshal: %v", h, err)
			}
			if again, err := decodeHello(enc); err != nil || again != h {
				t.Fatalf("hello does not round-trip: %+v became %+v, err %v", h, again, err)
			}
		}
	})
}
