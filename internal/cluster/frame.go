package cluster

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
)

// The frame codec both TCP stacks of the repository share: the node mesh
// of this package and the coordinator/worker links of package distrib.
// A frame is a 4-byte little-endian body length, then the body.

// FrameHeaderLen is the per-frame overhead the wire-byte counters add to
// each payload.
const FrameHeaderLen = 4

// MaxFrame bounds a single frame body. Mode payloads dominate, and a peer
// announcing more than this is more plausibly corrupt (or hostile) than
// correct: the length is checked before the body is allocated.
const MaxFrame = 256 << 20

// WriteFrame writes one frame as a single vectored write.
func WriteFrame(w io.Writer, body []byte) error {
	var hdr [FrameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(body)))
	bufs := net.Buffers{hdr[:], body}
	_, err := bufs.WriteTo(w)
	return err
}

// ReadFrame reads one frame body, refusing a header that announces more
// than maxFrame bytes.
func ReadFrame(r io.Reader, maxFrame int) ([]byte, error) {
	var hdr [FrameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if int64(n) > int64(maxFrame) {
		return nil, fmt.Errorf("cluster: %d-byte frame exceeds the %d-byte limit", n, maxFrame)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
}
