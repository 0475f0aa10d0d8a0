package bat

// This file is the BAT's native wire format: a versioned, little-endian,
// columnar layout that replaces gob on every hot data path (ring hops,
// result frames). The design goals, in order:
//
//  1. Decode without copying: fixed-width vectors (oid/int/float) land
//     in the message 8-byte aligned, so UnmarshalView can alias them
//     straight out of the receive buffer. Only the string heap is
//     copied (one blob allocation shared by all its strings).
//  2. Encode without intermediate buffers: AppendMarshal appends into a
//     caller-provided buffer (typically pooled, or a link's send region) and
//     MarshalSize is exact, so callers can size envelopes and memory
//     regions without slack. MarshalVec goes one step further for a
//     vectored write: the fixed-width vectors stay in the column's
//     memory.
//  3. Never trust the bytes: UnmarshalView validates every length and
//     offset and returns an error instead of panicking on corrupt or
//     truncated input (see FuzzUnmarshal).
//
// Layout (all integers little-endian, every section padded to 8 bytes
// relative to the start of the message):
//
//	message  := hdr name-bytes pad8 column(head) column(tail)
//	hdr      := magic 'D' 'C' | version u8 | reserved u8 | nameLen u32
//	column   := kind u8 | flags u8 | width u8 | exp u8 | top u32 | base u64 | n u64 | payload
//	payload  := dense: (empty)
//	          | oid, int/float of width 8: n * u64   (8-aligned, aliasable)
//	          | int/float of width 1, 2, 4: n * u8|u16|u32 codes, pad8 (aliasable)
//	          | bool: ceil(n/8) packed bits, pad8
//	          | str: blobLen u64, n * u32 end-offsets, pad8, blob, pad8
//
// width is the bytes per value of a materialized int or float column (1,
// 2, 4 or 8) and 0 for every other column. exp is a narrow float
// column's exponent, 0 to 22, and 0 for every other column.
// base is a dense column's first OID and a narrow column's reference:
// value i is base + code i for an int, (base + code i) / 10^exp for a
// float (see narrow.go); it is 0 for every other column. top is a narrow
// column's bound on its codes, at most the width's largest code: no
// code exceeds it (a merge sizes its codes from it), and it is 0 for
// every other column. A message whose codes pass its top decodes to its
// codes still, as a message with damaged codes does.
//
// Versioning rule: the version byte is bumped on any layout change and
// decoders reject versions they do not know — ring nodes and clients
// are deployed together, so there is no cross-version negotiation.
//
// Zero-copy aliasing contract: the BAT returned by UnmarshalView shares
// its fixed-width payloads with the input buffer. This is safe because
// fragments are immutable per version (an update installs a fresh *BAT
// with bytes of its own); callers must treat the buffer as frozen once
// decoded. Appending to a decoded column is still
// safe: views are handed out at full capacity, so append reallocates.
//
// The gob-based Marshal/Unmarshal live in serial_test.go as the
// baseline the equivalence and speedup tests compare against.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"unsafe"
)

// Wire format constants.
const (
	wireMagic0 = 'D'
	wireMagic1 = 'C'
	// WireVersion is the current layout version; UnmarshalView rejects
	// anything else. Version 2 added the int column's width, version 3
	// the float column's width and exponent, version 4 the narrow
	// column's bound on its codes.
	WireVersion = 4

	wireHdrSize = 8  // magic(2) + version(1) + reserved(1) + nameLen(4)
	colHdrSize  = 24 // kind(1) + flags(1) + width(1) + exp(1) + top(4) + base(8) + n(8)

	colFlagDense  = 1 << 0
	colFlagSorted = 1 << 1
)

// ErrWireVersion is returned when the version byte is unknown.
var ErrWireVersion = errors.New("bat: unsupported wire version")

// hostLittle reports whether this machine is little-endian; the
// zero-copy alias paths require it, everything else falls back to
// per-element conversion.
var hostLittle = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

func pad8(n int) int { return (n + 7) &^ 7 }

// colWireSize reports the exact encoded size of one column.
func colWireSize(c *Column) int {
	if c.dense {
		return colHdrSize
	}
	n := c.Len()
	switch {
	case c.narrow != nil:
		return colHdrSize + pad8(n*c.narrow.width())
	case c.kind == KStr:
		blob := 0
		for _, s := range c.strs {
			blob += len(s)
		}
		return colHdrSize + pad8(8+4*n) + pad8(blob)
	case c.kind == KBool:
		return colHdrSize + pad8((n+7)/8)
	default:
		return colHdrSize + 8*n
	}
}

// MarshalSize reports the exact number of bytes AppendMarshal will
// append for b. Callers use it to size envelopes, pooled buffers, and
// RDMA memory regions without slack.
func MarshalSize(b *BAT) int {
	return wireHdrSize + pad8(len(b.Name)) + colWireSize(b.h) + colWireSize(b.t)
}

// AppendMarshal appends the wire form of b to dst and returns the
// extended slice. It performs no intermediate allocation: with a dst of
// sufficient capacity (see MarshalSize) the encode is copy-only.
// Padding is relative to the start of the message (len(dst) at entry),
// so a message decoded from an 8-aligned buffer aliases its vectors.
func AppendMarshal(dst []byte, b *BAT) []byte {
	start := len(dst)
	dst = appendMsgHdr(dst, start, b)
	dst = appendPayload(appendColumnHdr(dst, b.h), start, b.h)
	return appendPayload(appendColumnHdr(dst, b.t), start, b.t)
}

// MarshalVec returns the wire form of b as slices whose concatenation
// is AppendMarshal(nil, b). On a little-endian host each value vector
// of fixed width — an oid, int or float column of width 8, or a narrow
// column's codes of width 1, 2 or 4 — is the column's own memory; the
// headers, the name, the padding and every other payload are encoded
// into one buffer of exactly their size, which the slices between the
// vectors share. A vectored write (net.Buffers) then sends b without
// copying its values. The slices alias b, which must not change until
// they are written.
func MarshalVec(b *BAT) [][]byte {
	if !hostLittle {
		return [][]byte{AppendMarshal(nil, b)}
	}
	cols := [2]*Column{b.h, b.t}
	vecs := [2][]byte{valueVec(b.h), valueVec(b.t)}
	buf := make([]byte, 0, MarshalSize(b)-len(vecs[0])-len(vecs[1]))
	buf = appendMsgHdr(buf, 0, b)
	out := make([][]byte, 0, 5)
	mark := 0
	for i, c := range cols {
		buf = appendColumnHdr(buf, c)
		v := vecs[i]
		if v == nil {
			buf = appendPayload(buf, 0, c)
			continue
		}
		out = append(out, buf[mark:], v)
		mark = len(buf)
		// The vector's pad goes into buf, so that buf stays as long,
		// modulo 8, as the message: every later pad computed from
		// len(buf) is the one the message needs.
		var zeros [8]byte
		buf = append(buf, zeros[:pad8(len(v))-len(v)]...)
	}
	if mark < len(buf) {
		out = append(out, buf[mark:])
	}
	return out
}

// appendMsgHdr appends the message header and the padded name.
func appendMsgHdr(dst []byte, start int, b *BAT) []byte {
	var hdr [wireHdrSize]byte
	hdr[0], hdr[1], hdr[2] = wireMagic0, wireMagic1, WireVersion
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(b.Name)))
	dst = append(dst, hdr[:]...)
	dst = append(dst, b.Name...)
	return appendPad(dst, start)
}

// appendPad pads dst with zeros to an 8-byte boundary relative to
// message start.
func appendPad(dst []byte, start int) []byte {
	var zeros [8]byte
	return append(dst, zeros[:pad8(len(dst)-start)-(len(dst)-start)]...)
}

// appendColumnHdr appends c's 24-byte column header.
func appendColumnHdr(dst []byte, c *Column) []byte {
	var hdr [colHdrSize]byte
	hdr[0] = byte(c.kind)
	if c.dense {
		hdr[1] |= colFlagDense
	}
	if c.sorted {
		hdr[1] |= colFlagSorted
	}
	base := uint64(c.base)
	if c.kind == KInt || c.kind == KFloat {
		hdr[2] = byte(c.Width())
	}
	if c.narrow != nil {
		hdr[3] = c.exp
		binary.LittleEndian.PutUint32(hdr[4:], c.narrow.top())
		base = uint64(c.narrow.ref())
	}
	binary.LittleEndian.PutUint64(hdr[8:], base)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(c.Len()))
	return append(dst, hdr[:]...)
}

// appendPayload appends the values that follow c's column header.
func appendPayload(dst []byte, start int, c *Column) []byte {
	if c.dense {
		return dst
	}
	if c.narrow != nil {
		return appendPad(c.narrow.appendWire(dst), start)
	}
	if v := vec8(c); v != nil {
		return appendLE64(dst, v)
	}
	switch c.kind {
	case KBool:
		word := byte(0)
		for i, v := range c.bools {
			if v {
				word |= 1 << (i & 7)
			}
			if i&7 == 7 {
				dst = append(dst, word)
				word = 0
			}
		}
		if len(c.bools)&7 != 0 {
			dst = append(dst, word)
		}
		dst = appendPad(dst, start)
	case KStr:
		blob := 0
		for _, s := range c.strs {
			blob += len(s)
		}
		// The offset vector is u32; a heap at or past 4 GiB would wrap
		// silently and be dropped as corrupt by every receiver. Fail
		// loudly at the sender instead — no sane fragment gets here.
		if uint64(blob) > math.MaxUint32 {
			panic(fmt.Sprintf("bat: string heap of %d bytes exceeds the 4 GiB wire format limit", blob))
		}
		var b8 [8]byte
		binary.LittleEndian.PutUint64(b8[:], uint64(blob))
		dst = append(dst, b8[:]...)
		end := uint32(0)
		var b4 [4]byte
		for _, s := range c.strs {
			end += uint32(len(s))
			binary.LittleEndian.PutUint32(b4[:], end)
			dst = append(dst, b4[:]...)
		}
		dst = appendPad(dst, start)
		for _, s := range c.strs {
			dst = append(dst, s...)
		}
		dst = appendPad(dst, start)
	}
	return dst
}

// valueVec returns the fixed-width values of c as their wire bytes on a
// little-endian host: a narrow column's codes or vec8's vector, a view
// of the column's memory either way. It is nil for any other column and
// for an empty one.
func valueVec(c *Column) []byte {
	if c.narrow != nil {
		return c.narrow.raw()
	}
	return vec8(c)
}

// vec8 returns the values of a materialized 8-byte column (oid, or int
// or float of width 8) as their bytes in host order: a view of the
// column's memory. It is nil for any other column and for an empty one.
func vec8(c *Column) []byte {
	if c.dense || c.narrow != nil {
		return nil
	}
	var p unsafe.Pointer
	var n int
	switch c.kind {
	case KOid:
		p, n = unsafe.Pointer(unsafe.SliceData(c.oids)), len(c.oids)
	case KInt:
		p, n = unsafe.Pointer(unsafe.SliceData(c.ints)), len(c.ints)
	case KFloat:
		p, n = unsafe.Pointer(unsafe.SliceData(c.floats)), len(c.floats)
	}
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(p), 8*n)
}

// appendLE64 appends host-order 8-byte values little-endian: a single
// memmove on little-endian hosts, a conversion loop elsewhere.
func appendLE64(dst, v []byte) []byte {
	if hostLittle {
		return append(dst, v...)
	}
	for i := 0; i < len(v); i += 8 {
		dst = binary.LittleEndian.AppendUint64(dst, binary.NativeEndian.Uint64(v[i:]))
	}
	return dst
}

// wireReader is a bounds-checked cursor over an untrusted message.
type wireReader struct {
	data []byte
	off  int
	err  error
}

func (r *wireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("bat: unmarshal: "+format, args...)
	}
}

// take returns the next n bytes, or nil after recording an error.
func (r *wireReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.data)-r.off {
		r.fail("truncated at offset %d (need %d of %d bytes)", r.off, n, len(r.data)-r.off)
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

func (r *wireReader) skipPad() {
	want := pad8(r.off)
	r.take(want - r.off)
}

// UnmarshalView decodes a message produced by AppendMarshal. Fixed-width
// vectors are zero-copy views over data (see the aliasing contract at
// the top of this file); the string heap and bool vectors are copied.
// It never panics on corrupt input.
func UnmarshalView(data []byte) (*BAT, error) {
	r := &wireReader{data: data}
	hdr := r.take(wireHdrSize)
	if r.err != nil {
		return nil, r.err
	}
	if hdr[0] != wireMagic0 || hdr[1] != wireMagic1 {
		return nil, fmt.Errorf("bat: unmarshal: bad magic %q", hdr[:2])
	}
	if hdr[2] != WireVersion {
		return nil, fmt.Errorf("%w %d (want %d)", ErrWireVersion, hdr[2], WireVersion)
	}
	nameLen := int(binary.LittleEndian.Uint32(hdr[4:]))
	name := string(r.take(nameLen))
	r.skipPad()
	h := readColumn(r)
	t := readColumn(r)
	if r.err != nil {
		return nil, r.err
	}
	if h.Len() != t.Len() {
		return nil, fmt.Errorf("bat: unmarshal: head/tail length mismatch %d != %d", h.Len(), t.Len())
	}
	return &BAT{Name: name, h: h, t: t}, nil
}

func readColumn(r *wireReader) *Column {
	hdr := r.take(colHdrSize)
	if r.err != nil {
		return &Column{}
	}
	kind := Kind(hdr[0])
	if kind < KOid || kind > KBool {
		r.fail("bad column kind %d", hdr[0])
		return &Column{}
	}
	flags, width, exp := hdr[1], hdr[2], hdr[3]
	top := binary.LittleEndian.Uint32(hdr[4:])
	base := Oid(binary.LittleEndian.Uint64(hdr[8:]))
	n64 := binary.LittleEndian.Uint64(hdr[16:])
	c := &Column{kind: kind, sorted: flags&colFlagSorted != 0}
	dense := flags&colFlagDense != 0
	switch {
	case (kind == KInt || kind == KFloat) && !dense:
		if width != 1 && width != 2 && width != 4 && width != 8 {
			r.fail("%s column of width %d", kind, width)
			return c
		}
	case width != 0:
		r.fail("width %d on a %s column", width, kind)
		return c
	}
	switch {
	case exp == 0:
	case kind != KFloat || width == 8:
		r.fail("exponent %d on a %s column of width %d", exp, kind, width)
		return c
	case int(exp) >= len(pow10):
		r.fail("exponent %d past 10^%d", exp, len(pow10)-1)
		return c
	}
	if dense {
		// Dense columns carry no payload, so n is unrelated to the
		// message size — a 1M-row dense×dense BAT encodes to 64 bytes.
		// Only guard against counts that would overflow int arithmetic.
		if kind != KOid {
			r.fail("dense column of kind %s", kind)
			return c
		}
		if n64 > 1<<56 {
			r.fail("implausible dense column length %d", n64)
			return c
		}
		c.dense, c.base, c.n = true, base, int(n64)
		return c
	}
	// Materialized columns do pay at least one bit per element, so a
	// length that cannot fit in the remaining bytes is corrupt; this
	// bound also keeps n*8 from overflowing int below.
	if n64 > uint64(len(r.data))*8 {
		r.fail("implausible column length %d", n64)
		return &Column{}
	}
	n := int(n64)
	if (kind == KInt || kind == KFloat) && width != 8 {
		if uint64(top) >= 1<<(8*width) {
			r.fail("code bound %d past a width of %d", top, width)
			return c
		}
		raw := r.take(n * int(width))
		r.skipPad()
		if r.err == nil && n > 0 {
			c.narrow, c.exp = wireCodes(raw, int(width), int64(base), top), exp
		}
		return c
	}
	switch kind {
	case KOid:
		c.oids = viewOids(r, n)
	case KInt:
		c.ints = viewInts(r, n)
	case KFloat:
		c.floats = viewFloats(r, n)
	case KBool:
		packed := r.take((n + 7) / 8)
		r.skipPad()
		if r.err != nil {
			return c
		}
		if n > 0 {
			c.bools = make([]bool, n)
			for i := range c.bools {
				c.bools[i] = packed[i>>3]&(1<<(i&7)) != 0
			}
		}
	case KStr:
		lenBytes := r.take(8)
		if r.err != nil {
			return c
		}
		blobLen64 := binary.LittleEndian.Uint64(lenBytes)
		if blobLen64 > uint64(len(r.data)) {
			r.fail("implausible string heap size %d", blobLen64)
			return c
		}
		blobLen := int(blobLen64)
		offBytes := r.take(4 * n)
		r.skipPad()
		blob := r.take(blobLen)
		r.skipPad()
		if r.err != nil {
			return c
		}
		// One copy for the whole heap; the strings share its backing.
		heap := string(blob)
		if n > 0 {
			c.strs = make([]string, n)
			prev := uint32(0)
			for i := range c.strs {
				end := binary.LittleEndian.Uint32(offBytes[4*i:])
				if end < prev || end > uint32(blobLen) {
					r.fail("string offset %d out of order (prev %d, heap %d)", end, prev, blobLen)
					return c
				}
				c.strs[i] = heap[prev:end]
				prev = end
			}
		}
	}
	return c
}

// wireCodes makes the codes of a narrow column from its payload of
// width-byte little-endian codes, under their bound top: a view of raw
// where the host and the alignment allow, a decoded copy elsewhere.
func wireCodes(raw []byte, width int, ref int64, top uint32) codes {
	switch width {
	case 1:
		return narrowInts[uint8]{viewCodes[uint8](raw), ref, uint8(top)}
	case 2:
		return narrowInts[uint16]{viewCodes[uint16](raw), ref, uint16(top)}
	}
	return narrowInts[uint32]{viewCodes[uint32](raw), ref, top}
}

func viewCodes[U code](raw []byte) []U {
	w := int(unsafe.Sizeof(U(0)))
	p := unsafe.Pointer(unsafe.SliceData(raw))
	if hostLittle && uintptr(p)%uintptr(w) == 0 {
		return unsafe.Slice((*U)(p), len(raw)/w)
	}
	out := make([]U, len(raw)/w)
	var b8 [8]byte
	for i := range out {
		copy(b8[:w], raw[i*w:])
		out[i] = U(binary.LittleEndian.Uint64(b8[:]))
	}
	return out
}

// viewU64Payload returns the n*8-byte payload for a fixed-width vector
// and whether it may be aliased in place (little-endian host and
// 8-aligned in memory — guaranteed by the layout when the message
// starts an allocation, re-checked here so arbitrary subslices stay
// correct).
func viewU64Payload(r *wireReader, n int) ([]byte, bool) {
	raw := r.take(8 * n)
	if r.err != nil || n == 0 {
		return nil, false
	}
	alias := hostLittle && uintptr(unsafe.Pointer(unsafe.SliceData(raw)))%8 == 0
	return raw, alias
}

func viewOids(r *wireReader, n int) []Oid {
	raw, alias := viewU64Payload(r, n)
	if raw == nil {
		return nil
	}
	if alias {
		return unsafe.Slice((*Oid)(unsafe.Pointer(unsafe.SliceData(raw))), n)
	}
	out := make([]Oid, n)
	for i := range out {
		out[i] = Oid(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return out
}

func viewInts(r *wireReader, n int) []int64 {
	raw, alias := viewU64Payload(r, n)
	if raw == nil {
		return nil
	}
	if alias {
		return unsafe.Slice((*int64)(unsafe.Pointer(unsafe.SliceData(raw))), n)
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return out
}

func viewFloats(r *wireReader, n int) []float64 {
	raw, alias := viewU64Payload(r, n)
	if raw == nil {
		return nil
	}
	if alias {
		return unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(raw))), n)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return out
}
