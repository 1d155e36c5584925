package core

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// The compressed mode-set stream ("EFMC") is the format of a spilled
// round, and of nothing else: the same mode set the flat
// "EFMS" codec carries, delta-encoded in the set's canonical
// radix-sorted support order and entropy-coded per block. Adjacent
// modes in that order share most of their support words, so each mode
// stores only the words that differ from its predecessor (XOR deltas
// behind a changed-word bitmap); values are stored sparsely behind a
// presence bitmap. The remaining payload still carries repeated float
// bit patterns (metabolic stoichiometries are heavily rational, so the
// same combination values recur across modes), which a per-block
// DEFLATE pass converts into the bulk of the compression win.
//
// Modes are grouped into fixed-size blocks; each block is independently
// decodable (the delta chain restarts at the block boundary), carries
// its own byte lengths and FNV-1a checksum, and leads with an
// UNCOMPRESSED per-mode popcount sidecar that the decoder checks every
// rebuilt support against.
//
// Decoding is strict: a truncated stream, a checksum mismatch, a
// non-canonical raw encoding (zero delta word, zero "present" value,
// set padding bits, sidecar/popcount disagreement) or trailing bytes
// fail loudly rather than decode into plausible nonsense. DEFLATE
// streams have no canonical form, so the fuzz target enforces
// decode∘encode idempotence (plus exact set equality) instead of the
// flat codec's byte-identity.
const (
	// storeCodecMagic is the little-endian uint32 spelling "EFMC".
	storeCodecMagic = uint32('E') | uint32('F')<<8 | uint32('M')<<16 | uint32('C')<<24
	// storeCodecVersion is the compressed-store format version.
	storeCodecVersion = 1
	// storeHeaderLen covers magic, version, q, firstRow, nRev, n and
	// blockSize (7 little-endian uint32s); revRows follow.
	storeHeaderLen = 28
	// storeBlockHeaderLen covers each block's raw payload length
	// (uint32), compressed payload length (uint32) and FNV-1a checksum
	// (uint64) over the sidecar plus compressed bytes.
	storeBlockHeaderLen = 16
	// DefaultStoreBlock is the block granularity the store uses: large
	// enough to amortize the delta restart and the DEFLATE window, small
	// enough that one block's raw bytes are a cheap decode buffer.
	DefaultStoreBlock = 256
	// storeFlateLevel trades encode time for ratio. BestSpeed already
	// clears the 2x bar on the yeast workload and keeps the per-row
	// overhead low — the store runs once per iteration round, between
	// the rounds' pair sweeps.
	storeFlateLevel = flate.BestSpeed
	// maxStoreQ bounds the column count the compressed format carries —
	// the popcount sidecar is a uint16 per mode. Reduced networks have
	// hundreds of columns; the bound exists so the decoder can reject
	// implausible headers before allocating.
	maxStoreQ = 1<<16 - 1
)

// fnv1aOffset is the FNV-1a 64 offset basis (FNV-1a is the repo's
// standard fingerprint primitive).
const fnv1aOffset = uint64(14695981039346656037)

// fnv1a folds data into the running FNV-1a 64 hash h; a fresh hash
// starts from fnv1aOffset.
func fnv1a(h uint64, data []byte) uint64 {
	const prime = 1099511628211
	for _, b := range data {
		h = (h ^ uint64(b)) * prime
	}
	return h
}

func appendZeros(dst []byte, n int) []byte {
	for i := 0; i < n; i++ {
		dst = append(dst, 0)
	}
	return dst
}

// EncodeCompressed serializes the mode set into the compressed block
// stream with the default block size.
func EncodeCompressed(s *ModeSet) []byte {
	return EncodeCompressedBlocks(s, DefaultStoreBlock)
}

// EncodeCompressedBlocks is EncodeCompressed with an explicit block
// size (exposed for the fuzz target, which must re-encode with the
// block size the header declares). The set's column count must not
// exceed maxStoreQ — the store keeps a wider set flat.
func EncodeCompressedBlocks(s *ModeSet, blockSize int) []byte {
	if blockSize <= 0 {
		blockSize = DefaultStoreBlock
	}
	if s.q > maxStoreQ {
		panic(fmt.Sprintf("core: compressed store supports at most %d columns, set has %d", maxStoreQ, s.q))
	}
	words, stride := s.words, s.stride()
	supBM, valBM := (words+7)/8, (stride+7)/8
	out := make([]byte, 0, storeHeaderLen+4*len(s.revRows)+s.n*(2+supBM+valBM))
	var b4 [4]byte
	var b8 [8]byte
	put32 := func(v uint32) {
		binary.LittleEndian.PutUint32(b4[:], v)
		out = append(out, b4[:]...)
	}
	put32(storeCodecMagic)
	put32(storeCodecVersion)
	put32(uint32(s.q))
	put32(uint32(s.firstRow))
	put32(uint32(len(s.revRows)))
	put32(uint32(s.n))
	put32(uint32(blockSize))
	for _, r := range s.revRows {
		put32(uint32(r))
	}

	prev := make([]uint64, words)
	var raw, sidecar []byte
	var comp bytes.Buffer
	fw, err := flate.NewWriter(&comp, storeFlateLevel)
	if err != nil {
		panic(err) // only reachable with an invalid level constant
	}
	for b0 := 0; b0 < s.n; b0 += blockSize {
		b1 := b0 + blockSize
		if b1 > s.n {
			b1 = s.n
		}
		// Popcount sidecar: one uint16 support size per mode, stored
		// uncompressed.
		sidecar = sidecar[:0]
		for i := b0; i < b1; i++ {
			pc := 0
			for _, w := range s.BitsWords(i) {
				pc += popcount(w)
			}
			binary.LittleEndian.PutUint16(b8[:2], uint16(pc))
			sidecar = append(sidecar, b8[:2]...)
		}
		// Supports: XOR delta against the previous mode in canonical
		// order; the chain restarts from zero at each block boundary so
		// blocks decode independently.
		raw = raw[:0]
		for k := range prev {
			prev[k] = 0
		}
		for i := b0; i < b1; i++ {
			w := s.BitsWords(i)
			bmOff := len(raw)
			raw = appendZeros(raw, supBM)
			for k := 0; k < words; k++ {
				if d := w[k] ^ prev[k]; d != 0 {
					raw[bmOff+k/8] |= 1 << uint(k%8)
					binary.LittleEndian.PutUint64(b8[:], d)
					raw = append(raw, b8[:]...)
				}
				prev[k] = w[k]
			}
		}
		// Values: sparse behind a presence bitmap. Presence keys off the
		// exact float bit pattern, NOT the support bits — AppendMode can
		// leave sub-tolerance non-zeros with the support bit clear, and
		// the fingerprint distinguishes ±0.0, so only a literal zero
		// pattern may be elided.
		for i := b0; i < b1; i++ {
			vals := s.vals[i*stride : (i+1)*stride]
			bmOff := len(raw)
			raw = appendZeros(raw, valBM)
			for j, v := range vals {
				if fb := math.Float64bits(v); fb != 0 {
					raw[bmOff+j/8] |= 1 << uint(j%8)
					binary.LittleEndian.PutUint64(b8[:], fb)
					raw = append(raw, b8[:]...)
				}
			}
		}
		comp.Reset()
		fw.Reset(&comp)
		if _, err := fw.Write(raw); err != nil {
			panic(err) // bytes.Buffer writes cannot fail
		}
		if err := fw.Close(); err != nil {
			panic(err)
		}
		put32(uint32(len(raw)))
		put32(uint32(comp.Len()))
		binary.LittleEndian.PutUint64(b8[:], fnv1a(fnv1a(fnv1aOffset, sidecar), comp.Bytes()))
		out = append(out, b8[:]...)
		out = append(out, sidecar...)
		out = append(out, comp.Bytes()...)
	}
	return out
}

// storeHeader is the parsed fixed header of a compressed stream.
type storeHeader struct {
	q, firstRow, n, blockSize int
	revRows                   []int
	body                      int // offset of the first block
}

func parseStoreHeader(data []byte) (storeHeader, error) {
	var h storeHeader
	if len(data) < storeHeaderLen {
		return h, fmt.Errorf("core: compressed mode-set payload truncated (%d bytes)", len(data))
	}
	if magic := binary.LittleEndian.Uint32(data); magic != storeCodecMagic {
		return h, fmt.Errorf("core: not a compressed mode-set payload (magic %#08x, want %#08x)", magic, storeCodecMagic)
	}
	if version := binary.LittleEndian.Uint32(data[4:]); version != storeCodecVersion {
		return h, fmt.Errorf("core: unsupported compressed mode-set version %d (this build reads %d)", version, storeCodecVersion)
	}
	o := 8
	get32 := func() int {
		v := int(int32(binary.LittleEndian.Uint32(data[o:])))
		o += 4
		return v
	}
	h.q = get32()
	h.firstRow = get32()
	nRev := get32()
	h.n = get32()
	h.blockSize = get32()
	if h.q < 0 || h.q > maxStoreQ || h.firstRow < 0 || h.firstRow > h.q ||
		nRev < 0 || nRev > h.q || h.n < 0 || h.blockSize < 1 || h.blockSize > 1<<20 {
		return h, fmt.Errorf("core: corrupt compressed mode-set header (q=%d firstRow=%d nRev=%d n=%d block=%d)",
			h.q, h.firstRow, nRev, h.n, h.blockSize)
	}
	if len(data)-o < 4*nRev {
		return h, fmt.Errorf("core: compressed mode-set payload truncated in revRows")
	}
	h.revRows = make([]int, nRev)
	for i := range h.revRows {
		h.revRows[i] = get32()
		if h.revRows[i] < 0 || h.revRows[i] >= h.q {
			return h, fmt.Errorf("core: corrupt revRow %d", h.revRows[i])
		}
	}
	h.body = o
	return h, nil
}

// storeBlock is one validated block frame within the stream.
type storeBlock struct {
	b0, b1   int // mode range
	rawLen   int
	sidecar  []byte // uncompressed popcounts, 2 bytes per mode
	comp     []byte // deflated delta payload
	checksum uint64
}

// scanStoreBlocks validates the block framing — per-block raw byte
// bounds derived from the mode count, compressed lengths against the
// remaining stream, exact total length — before any flat allocation
// happens, so a forged header cannot force an allocation the stream
// could never back.
func scanStoreBlocks(data []byte, h storeHeader) ([]storeBlock, error) {
	words := (h.q + 63) / 64
	stride := h.q - h.firstRow + len(h.revRows)
	supBM, valBM := (words+7)/8, (stride+7)/8
	var blocks []storeBlock
	o := h.body
	for b0 := 0; b0 < h.n; b0 += h.blockSize {
		b1 := b0 + h.blockSize
		if b1 > h.n {
			b1 = h.n
		}
		if len(data)-o < storeBlockHeaderLen+2*(b1-b0) {
			return nil, fmt.Errorf("core: compressed mode-set truncated at block header (offset %d)", o)
		}
		rawLen := int(binary.LittleEndian.Uint32(data[o:]))
		compLen := int(binary.LittleEndian.Uint32(data[o+4:]))
		sum := binary.LittleEndian.Uint64(data[o+8:])
		floor := (b1 - b0) * (supBM + valBM)
		ceil := (b1 - b0) * (supBM + 8*words + valBM + 8*stride)
		if rawLen < floor || rawLen > ceil {
			return nil, fmt.Errorf("core: compressed block of %d modes claims %d raw bytes outside [%d, %d]",
				b1-b0, rawLen, floor, ceil)
		}
		if compLen < 1 || compLen > len(data)-o-storeBlockHeaderLen-2*(b1-b0) {
			return nil, fmt.Errorf("core: compressed block claims %d compressed bytes, stream has %d left",
				compLen, len(data)-o-storeBlockHeaderLen-2*(b1-b0))
		}
		o += storeBlockHeaderLen
		sidecar := data[o : o+2*(b1-b0)]
		o += 2 * (b1 - b0)
		comp := data[o : o+compLen]
		o += compLen
		blocks = append(blocks, storeBlock{b0: b0, b1: b1, rawLen: rawLen, sidecar: sidecar, comp: comp, checksum: sum})
	}
	if o != len(data) {
		return nil, fmt.Errorf("core: compressed mode-set has %d trailing bytes", len(data)-o)
	}
	return blocks, nil
}

// verifyBlock checks the block's FNV-1a checksum over sidecar plus
// compressed bytes.
func verifyBlock(b storeBlock) error {
	if fnv1a(fnv1a(fnv1aOffset, b.sidecar), b.comp) != b.checksum {
		return fmt.Errorf("core: compressed block checksum mismatch (modes %d..%d)", b.b0, b.b1-1)
	}
	return nil
}

// inflateBlock inflates the block payload into dst (sized rawLen),
// requiring the stream to produce exactly rawLen bytes and then end.
func inflateBlock(b storeBlock, dst []byte) error {
	fr := flate.NewReader(bytes.NewReader(b.comp))
	defer fr.Close()
	if _, err := io.ReadFull(fr, dst); err != nil {
		return fmt.Errorf("core: compressed block payload inflates short (modes %d..%d): %w", b.b0, b.b1-1, err)
	}
	var one [1]byte
	if n, err := fr.Read(one[:]); n != 0 || err != io.EOF {
		return fmt.Errorf("core: compressed block payload inflates past its declared %d bytes (modes %d..%d)", b.rawLen, b.b0, b.b1-1)
	}
	return nil
}

// DecodeCompressed reconstructs a mode set from its EncodeCompressed
// form, verifying block checksums and rejecting every non-canonical or
// inconsistent encoding.
func DecodeCompressed(data []byte) (*ModeSet, error) {
	h, err := parseStoreHeader(data)
	if err != nil {
		return nil, err
	}
	s := NewModeSet(h.q, h.firstRow, h.revRows)
	words, stride := s.words, s.stride()
	supBM, valBM := (words+7)/8, (stride+7)/8
	blocks, err := scanStoreBlocks(data, h)
	if err != nil {
		return nil, err
	}
	s.bits = make([]uint64, h.n*words)
	s.vals = make([]float64, h.n*stride)
	s.n = h.n

	var padMask uint64
	if r := h.q % 64; r != 0 && words > 0 {
		padMask = ^uint64(0) << uint(r)
	}
	prev := make([]uint64, words)
	var raw []byte
	for _, blk := range blocks {
		if err := verifyBlock(blk); err != nil {
			return nil, err
		}
		if cap(raw) < blk.rawLen {
			raw = make([]byte, blk.rawLen)
		}
		raw = raw[:blk.rawLen]
		if err := inflateBlock(blk, raw); err != nil {
			return nil, err
		}
		p := 0
		for k := range prev {
			prev[k] = 0
		}
		for i := blk.b0; i < blk.b1; i++ {
			if blk.rawLen-p < supBM {
				return nil, fmt.Errorf("core: compressed block truncated in support bitmap (mode %d)", i)
			}
			bm := raw[p : p+supBM]
			p += supBM
			for k := words; k < supBM*8; k++ {
				if bm[k/8]&(1<<uint(k%8)) != 0 {
					return nil, fmt.Errorf("core: compressed support bitmap has padding bits set (mode %d)", i)
				}
			}
			dst := s.bits[i*words : (i+1)*words]
			pc := 0
			for k := 0; k < words; k++ {
				w := prev[k]
				if bm[k/8]&(1<<uint(k%8)) != 0 {
					if blk.rawLen-p < 8 {
						return nil, fmt.Errorf("core: compressed block truncated in delta words (mode %d)", i)
					}
					d := binary.LittleEndian.Uint64(raw[p:])
					p += 8
					if d == 0 {
						return nil, fmt.Errorf("core: non-canonical zero delta word (mode %d)", i)
					}
					w ^= d
				}
				dst[k] = w
				prev[k] = w
				pc += popcount(w)
			}
			if padMask != 0 && dst[words-1]&padMask != 0 {
				return nil, fmt.Errorf("core: support bits set beyond column %d (mode %d)", h.q-1, i)
			}
			if side := int(binary.LittleEndian.Uint16(blk.sidecar[(i-blk.b0)*2:])); side != pc {
				return nil, fmt.Errorf("core: popcount sidecar says %d, support has %d bits (mode %d)", side, pc, i)
			}
		}
		for i := blk.b0; i < blk.b1; i++ {
			if blk.rawLen-p < valBM {
				return nil, fmt.Errorf("core: compressed block truncated in value bitmap (mode %d)", i)
			}
			bm := raw[p : p+valBM]
			p += valBM
			for j := stride; j < valBM*8; j++ {
				if bm[j/8]&(1<<uint(j%8)) != 0 {
					return nil, fmt.Errorf("core: compressed value bitmap has padding bits set (mode %d)", i)
				}
			}
			dst := s.vals[i*stride : (i+1)*stride]
			for j := 0; j < stride; j++ {
				if bm[j/8]&(1<<uint(j%8)) == 0 {
					continue
				}
				if blk.rawLen-p < 8 {
					return nil, fmt.Errorf("core: compressed block truncated in values (mode %d)", i)
				}
				fb := binary.LittleEndian.Uint64(raw[p:])
				p += 8
				if fb == 0 {
					return nil, fmt.Errorf("core: non-canonical zero value marked present (mode %d)", i)
				}
				dst[j] = math.Float64frombits(fb)
			}
		}
		if p != blk.rawLen {
			return nil, fmt.Errorf("core: compressed block consumed %d of %d raw bytes", p, blk.rawLen)
		}
	}
	return s, nil
}
