package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/bat"
	"repro/internal/mal"
)

// The wire protocol is deliberately small: length-prefixed binary
// frames over TCP. Every frame is
//
//	uint32 big-endian payload length | 1 byte frame type | payload
//
// A session opens with Hello/HelloOK and then alternates Query ->
// (Result | Error). Result payloads use the bat package's native codec
// (wire.go): each column travels exactly as it would on the storage
// ring, the server writes its values from the column's own memory (one
// writev per result, see ResultVec), and clients decode numeric columns
// zero-copy out of the frame buffer. No gob anywhere on this path.

// Frame types.
const (
	// FrameHello opens a session (client -> server); payload is Magic.
	FrameHello byte = 1
	// FrameHelloOK acknowledges (server -> client); payload is a Hello.
	FrameHelloOK byte = 2
	// FrameQuery carries SQL text (client -> server).
	FrameQuery byte = 3
	// FrameResult carries a serialized result set (server -> client).
	FrameResult byte = 4
	// FrameError carries an error code + message (server -> client).
	FrameError byte = 5
	// FrameStats requests the serving node's counters (client -> server,
	// empty payload).
	FrameStats byte = 6
	// FrameStatsOK answers with a JSON-encoded NodeStats (server ->
	// client). JSON is deliberate: stats are low-rate and the struct
	// grows with every observability PR, so a self-describing encoding
	// beats hand-rolled offsets here.
	FrameStatsOK byte = 7
)

// Magic is the handshake payload; it versions the protocol. DCY2
// replaced the gob hello/result payloads with the native binary codec.
const Magic = "DCY2"

// DefaultMaxFrame bounds a single frame (result sets included).
const DefaultMaxFrame = 64 << 20

// Error codes carried by FrameError.
const (
	// CodeBadRequest: the frame sequence or SQL framing was malformed.
	CodeBadRequest byte = 1
	// CodeRejected: admission control's wait queue was full.
	CodeRejected byte = 2
	// CodeDraining: the server is shutting down and takes no new work.
	CodeDraining byte = 3
	// CodeExec: the query compiled or executed with an error.
	CodeExec byte = 4
)

// Hello is the server's handshake response. Beyond the fixed serving
// parameters it carries the node's current membership view: the full
// node address list and per-node liveness, stamped with the view
// version. Clients keep it as a routing cache — when a connection
// fails they retry onto a surviving node and refresh the cache from
// that node's Hello.
type Hello struct {
	Node        int // ring position of the serving node
	Ring        int // ring size
	MaxInFlight int // admission slots at this node

	// ViewVersion is the serving node's membership view version (0 when
	// the ring runs without replication: the view never changes).
	ViewVersion int64
	// Addrs lists every ring node's listen address, in ring order.
	// Empty when the server predates the membership protocol.
	Addrs []string
	// Alive flags each entry of Addrs live or declared dead.
	Alive []bool
}

// RemoteError is a protocol-level failure reported by the server. The
// connection that carried it remains usable.
type RemoteError struct {
	Code byte
	Msg  string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("server: %s (code %d)", e.Msg, e.Code)
}

// Temporary reports whether retrying the same query later may succeed
// (admission rejection or drain, rather than a broken query).
func (e *RemoteError) Temporary() bool {
	return e.Code == CodeRejected || e.Code == CodeDraining
}

// WriteFrame writes one frame: header then payload, two writes with no
// intermediate buffer. Callers pass a *bufio.Writer, which coalesces
// small frames into one segment.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	hdr := frameHeader(typ, len(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) == 0 {
		return nil
	}
	_, err := w.Write(payload)
	return err
}

// frameHeader is the 5 bytes that open a frame of n payload bytes.
func frameHeader(typ byte, n int) [5]byte {
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(n))
	hdr[4] = typ
	return hdr
}

// ReadFrame reads one frame, rejecting payloads larger than max. It
// allocates the payload at the size the header claims before reading
// it: one exact-size buffer for the trusted side of a connection (a
// client reading its result).
func ReadFrame(r io.Reader, max int) (byte, []byte, error) {
	typ, n, err := readHeader(r, max)
	if err != nil {
		return 0, nil, err
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return typ, payload, nil
}

// readRequest is ReadFrame for frames a client sends, read from the
// handler's bufio.Reader. A payload the reader already holds whole — a
// query's SQL — is read into one allocation of its size; any other
// grows as its bytes arrive, so a header that claims max bytes and is
// not followed by them costs what was received, not max.
func readRequest(br *bufio.Reader, max int) (byte, []byte, error) {
	hdr, err := br.Peek(5)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF // as io.ReadFull reports a short header
		}
		return 0, nil, err
	}
	typ, n, err := parseHeader(hdr, max)
	if err != nil {
		return 0, nil, err
	}
	_, _ = br.Discard(5) // cannot fail: Peek holds the 5 bytes
	if n <= br.Buffered() {
		payload := make([]byte, n)
		_, _ = br.Read(payload) // cannot fail: n buffered bytes are copied whole, nothing is read
		return typ, payload, nil
	}
	var payload bytes.Buffer
	if _, err := io.CopyN(&payload, br, int64(n)); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	return typ, payload.Bytes(), nil
}

// readHeader reads a frame's 5-byte header: its type and payload
// length, refused past max.
func readHeader(r io.Reader, max int) (byte, int, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, err
	}
	return parseHeader(hdr[:], max)
}

// parseHeader decodes a 5-byte header.
func parseHeader(hdr []byte, max int) (byte, int, error) {
	n := int(binary.BigEndian.Uint32(hdr[:4]))
	if n > max {
		return 0, 0, fmt.Errorf("server: frame of %d bytes exceeds limit %d", n, max)
	}
	return hdr[4], n, nil
}

// EncodeError builds a FrameError payload.
func EncodeError(code byte, msg string) []byte {
	return append([]byte{code}, msg...)
}

// DecodeError parses a FrameError payload.
func DecodeError(payload []byte) *RemoteError {
	if len(payload) == 0 {
		return &RemoteError{Code: CodeBadRequest, Msg: "empty error frame"}
	}
	return &RemoteError{Code: payload[0], Msg: string(payload[1:])}
}

// helloSize is the fixed binary prefix of a Hello payload. The
// membership section that follows is variable-length:
//
//	u64 view version | u32 node count
//	per node: 1 byte alive | u32 addrLen | addr bytes
//
// A payload of exactly helloSize bytes is the legacy handshake (no
// membership section). Bytes after the membership entries are ignored:
// older servers in front of a two-ring runtime appended a ring-label
// section there.
const helloSize = 24

// maxHelloAddr bounds a single address in the membership section, so a
// corrupt count or length cannot amplify into huge allocations.
const maxHelloAddr = 1 << 10

// EncodeHello encodes the handshake response: three little-endian
// 64-bit fields (node, ring size, admission slots) followed by the
// membership section.
func EncodeHello(h Hello) ([]byte, error) {
	if len(h.Addrs) != len(h.Alive) {
		return nil, fmt.Errorf("server: hello has %d addrs for %d alive flags", len(h.Addrs), len(h.Alive))
	}
	size := helloSize + 8 + 4
	for _, a := range h.Addrs {
		if len(a) > maxHelloAddr {
			return nil, fmt.Errorf("server: hello address %q exceeds %d bytes", a, maxHelloAddr)
		}
		size += 1 + 4 + len(a)
	}
	buf := make([]byte, helloSize, size)
	le := binary.LittleEndian
	le.PutUint64(buf[0:], uint64(h.Node))
	le.PutUint64(buf[8:], uint64(h.Ring))
	le.PutUint64(buf[16:], uint64(h.MaxInFlight))
	var b8 [8]byte
	le.PutUint64(b8[:], uint64(h.ViewVersion))
	buf = append(buf, b8[:]...)
	le.PutUint32(b8[:4], uint32(len(h.Addrs)))
	buf = append(buf, b8[:4]...)
	for i, a := range h.Addrs {
		alive := byte(0)
		if h.Alive[i] {
			alive = 1
		}
		buf = append(buf, alive)
		le.PutUint32(b8[:4], uint32(len(a)))
		buf = append(buf, b8[:4]...)
		buf = append(buf, a...)
	}
	return buf, nil
}

// DecodeHello parses a FrameHelloOK payload, accepting both the legacy
// fixed form and the membership-extended form.
func DecodeHello(payload []byte) (Hello, error) {
	if len(payload) < helloSize {
		return Hello{}, fmt.Errorf("server: hello payload of %d bytes, want at least %d", len(payload), helloSize)
	}
	le := binary.LittleEndian
	h := Hello{
		Node:        int(le.Uint64(payload[0:])),
		Ring:        int(le.Uint64(payload[8:])),
		MaxInFlight: int(le.Uint64(payload[16:])),
	}
	if len(payload) == helloSize {
		return h, nil // legacy handshake: no membership section
	}
	rest := payload[helloSize:]
	if len(rest) < 12 {
		return Hello{}, fmt.Errorf("server: truncated hello membership section (%d bytes)", len(rest))
	}
	h.ViewVersion = int64(le.Uint64(rest[0:]))
	count := int(le.Uint32(rest[8:]))
	if count < 0 || count > len(rest) {
		return Hello{}, fmt.Errorf("server: implausible hello node count %d", count)
	}
	off := 12
	h.Addrs = make([]string, count)
	h.Alive = make([]bool, count)
	for i := 0; i < count; i++ {
		if off+5 > len(rest) {
			return Hello{}, fmt.Errorf("server: truncated hello node entry %d", i)
		}
		h.Alive[i] = rest[off] != 0
		addrLen := int(le.Uint32(rest[off+1:]))
		off += 5
		if addrLen > maxHelloAddr || addrLen > len(rest)-off {
			return Hello{}, fmt.Errorf("server: hello address %d out of bounds", i)
		}
		h.Addrs[i] = string(rest[off : off+addrLen])
		off += addrLen
	}
	return h, nil // trailing bytes are ignored (see helloSize)
}

// A FrameResult payload is the native codec applied column-at-a-time:
//
//	u32 ncols | per column: u32 nameLen, name bytes | pad to 8
//	per column: u64 blobLen (8-aligned) | bat wire bytes | pad to 8
//
// Column blobs start 8-aligned relative to the payload, so a client
// decoding the frame buffer gets zero-copy numeric columns. A bat
// message is a whole number of 8-byte words, so the pad after a blob is
// empty. sql.resultSet heads every column dense, so a column's blob
// carries its values and a 24-byte head.

func pad8(n int) int { return (n + 7) &^ 7 }

// ResultVec returns the FrameResult payload for rs as slices whose
// concatenation is the payload, and the payload's length. The count,
// the names, the length words and the bat headers are small slices; each
// 8-byte value vector is the result column's own memory (bat.MarshalVec),
// so a vectored write sends a result without copying it. The slices
// alias rs, which must not change until they are written.
func ResultVec(rs *mal.ResultSet) ([][]byte, int, error) {
	if len(rs.Names) != len(rs.Cols) {
		return nil, 0, fmt.Errorf("server: result has %d names for %d columns", len(rs.Names), len(rs.Cols))
	}
	head := 4
	for _, name := range rs.Names {
		head += 4 + len(name)
	}
	// One buffer holds the count, the names, their pad and every
	// column's length word.
	buf := make([]byte, 0, pad8(head)+8*len(rs.Cols))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(rs.Cols)))
	for _, name := range rs.Names {
		buf = append(binary.BigEndian.AppendUint32(buf, uint32(len(name))), name...)
	}
	buf = append(buf, make([]byte, pad8(head)-head)...)
	vecs := make([][]byte, 0, 1+6*len(rs.Cols))
	vecs = append(vecs, buf)
	total := len(buf)
	for _, c := range rs.Cols {
		// A bat message is a whole number of 8-byte words, so every
		// length word and blob starts 8-aligned with no pad between.
		n := bat.MarshalSize(c)
		word := len(buf)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(n))
		vecs = append(vecs, buf[word:])
		vecs = append(vecs, bat.MarshalVec(c)...)
		total += 8 + n
	}
	return vecs, total, nil
}

// EncodeResult serializes a result set for a FrameResult payload: the
// flat join of ResultVec's slices.
func EncodeResult(rs *mal.ResultSet) ([]byte, error) {
	vecs, _, err := ResultVec(rs)
	if err != nil {
		return nil, err
	}
	return bytes.Join(vecs, nil), nil
}

// DecodeResult parses a FrameResult payload back into a result set.
// Numeric result columns, and a string column's dictionary codes, are
// zero-copy views over payload, which must not be modified afterwards
// (each frame read allocates a fresh buffer, so this holds by
// construction in the client). A numeric column may arrive narrow — 1,
// 2 or 4-byte codes, the form a projection's values leave the ring in —
// and a string column as codes into its dictionary: read them through
// Int, Float, Str and Value, or decode them to 8-byte values and plain
// strings with bat.Widen.
func DecodeResult(payload []byte) (*mal.ResultSet, error) {
	bad := func(what string) (*mal.ResultSet, error) {
		return nil, fmt.Errorf("server: corrupt result frame: %s", what)
	}
	if len(payload) < 4 {
		return bad("truncated header")
	}
	ncols := int(binary.BigEndian.Uint32(payload))
	// Each column needs at least its 4-byte name length; bounding before
	// the allocations below keeps a corrupt count from amplifying into
	// gigabyte-sized slice makes.
	if ncols < 0 || ncols > (len(payload)-4)/4 {
		return bad("implausible column count")
	}
	off := 4
	rs := &mal.ResultSet{Names: make([]string, ncols), Cols: make([]*bat.BAT, ncols)}
	for i := 0; i < ncols; i++ {
		if off+4 > len(payload) {
			return bad("truncated column name")
		}
		nameLen := int(binary.BigEndian.Uint32(payload[off:]))
		off += 4
		if nameLen < 0 || nameLen > len(payload)-off {
			return bad("column name out of bounds")
		}
		rs.Names[i] = string(payload[off : off+nameLen])
		off += nameLen
	}
	off = pad8(off)
	for i := 0; i < ncols; i++ {
		if off+8 > len(payload) {
			return bad("truncated column length")
		}
		blobLen64 := binary.LittleEndian.Uint64(payload[off:])
		off += 8
		if blobLen64 > uint64(len(payload)-off) {
			return bad("column blob out of bounds")
		}
		blobLen := int(blobLen64)
		b, err := bat.UnmarshalView(payload[off : off+blobLen])
		if err != nil {
			return nil, err
		}
		rs.Cols[i] = b
		off = pad8(off + blobLen)
	}
	return rs, nil
}
