package live

// This file is the ring's message envelope: a flat, fixed-size binary
// header in front of each BAT payload or request, replacing the old gob
// wireMsg. The header size is exact and constant, so ring message
// limits and RDMA memory regions are sized precisely (the old
// "maxBytes += 1<<16 // gob slack" fudge is gone) — and it is 64 bytes,
// matching core.BATHeaderSize, so the simulator's wire accounting and
// the live ring now agree byte-for-byte.
//
// Data envelope (little-endian, payload 8-aligned for bat's zero-copy
// decode). Envelope version 2 carries the fragment's catalog version
// alongside the payload: the hot-set cache labels every delivery with
// the version the owner installed it under, which is what makes
// version-validated node-local reads provably never stale. Owner is a
// ring position and fits u32, which is where the four bytes came from.
//
//	[0] 'D'  [1] 'R'  [2] version  [3] kind (1=data)
//	[4:8]   u32 payload length
//	[8:12]  u32 Owner  [12:16] u32 fragment version
//	[16:24] BAT     [24:32] Size
//	[32:40] LOI (float64 bits)
//	[40:48] Copies   [48:56] Hops    [56:64] Cycles
//	[64:]   payload (bat.AppendMarshal bytes)
//
// Request envelope:
//
//	[0] 'D'  [1] 'R'  [2] version  [3] kind (2=request)
//	[4:8]   reserved
//	[8:16]  Origin   [16:24] BAT

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/membership"
)

const (
	envMagic0  = 'D'
	envMagic1  = 'R'
	envVersion = 2

	envKindData = 1
	envKindReq  = 2

	// dataHdrSize is the exact envelope overhead of a data message.
	dataHdrSize = 64
	// reqMsgSize is the exact size of a request message.
	reqMsgSize = 24

	// Batch envelope (version 3, kind 3): several data messages gathered
	// into one hop message so a busy link pays one send per *batch*
	// rather than per fragment. Layout:
	//
	//	[0] 'D'  [1] 'R'  [2] 3 (version)  [3] 3 (kind)
	//	[4:8]   u32 entry count
	//	count × 64-byte entry headers — each a complete v2 data header
	//	count × payloads, each zero-padded to 8 bytes
	//
	// Entry headers are full v2 data envelopes (magic included) so each
	// entry validates independently and unbatching reproduces the exact
	// v2 single-message bytes. The 8-byte batch header plus 64-byte
	// entries keep every payload 8-aligned relative to the message, which
	// bat.UnmarshalView's zero-copy decode requires.
	envVersionBatch = 3
	envKindBatch    = 3
	batchHdrSize    = 8

	// maxHopBatchFrags bounds the entries in one batch envelope; the
	// receiver rejects anything larger, so a corrupt count can't drive a
	// huge entry-table walk.
	maxHopBatchFrags = 64
)

var errEnvelope = errors.New("live: bad ring envelope")

func putEnvHeader(dst []byte, kind byte) {
	dst[0], dst[1], dst[2], dst[3] = envMagic0, envMagic1, envVersion, kind
}

func checkEnvHeader(data []byte, kind byte, minLen int) error {
	if len(data) < minLen {
		return fmt.Errorf("%w: %d bytes, need %d", errEnvelope, len(data), minLen)
	}
	if data[0] != envMagic0 || data[1] != envMagic1 {
		return fmt.Errorf("%w: bad magic %q", errEnvelope, data[:2])
	}
	if data[2] != envVersion {
		return fmt.Errorf("%w: version %d (want %d)", errEnvelope, data[2], envVersion)
	}
	if data[3] != kind {
		return fmt.Errorf("%w: kind %d (want %d)", errEnvelope, data[3], kind)
	}
	return nil
}

// encodeDataHdr writes the envelope for m (a fragment at version ver)
// into dst[:dataHdrSize].
func encodeDataHdr(dst []byte, m core.BATMsg, ver, payloadLen int) {
	// The length field is u32; wrapping would make the neighbour drop
	// the fragment as corrupt with no error anywhere. Fail at the
	// sender instead.
	if uint64(payloadLen) > math.MaxUint32 {
		panic(fmt.Sprintf("live: %d-byte payload exceeds the 4 GiB envelope limit", payloadLen))
	}
	putEnvHeader(dst, envKindData)
	le := binary.LittleEndian
	le.PutUint32(dst[4:], uint32(payloadLen))
	le.PutUint32(dst[8:], uint32(m.Owner))
	le.PutUint32(dst[12:], uint32(ver))
	le.PutUint64(dst[16:], uint64(m.BAT))
	le.PutUint64(dst[24:], uint64(m.Size))
	le.PutUint64(dst[32:], math.Float64bits(m.LOI))
	le.PutUint64(dst[40:], uint64(m.Copies))
	le.PutUint64(dst[48:], uint64(m.Hops))
	le.PutUint64(dst[56:], uint64(m.Cycles))
}

// decodeDataHdr extracts the message fields of a validated 64-byte data
// header: the BAT header, the fragment version, and the payload length
// the header claims.
func decodeDataHdr(h []byte) (core.BATMsg, int, int) {
	le := binary.LittleEndian
	m := core.BATMsg{
		Owner:  core.NodeID(le.Uint32(h[8:])),
		BAT:    core.BATID(le.Uint64(h[16:])),
		Size:   int(le.Uint64(h[24:])),
		LOI:    math.Float64frombits(le.Uint64(h[32:])),
		Copies: int(le.Uint64(h[40:])),
		Hops:   int(le.Uint64(h[48:])),
		Cycles: int(le.Uint64(h[56:])),
	}
	return m, int(le.Uint32(h[12:])), int(le.Uint32(h[4:]))
}

// decodeDataMsg parses a data envelope, returning the header, the
// fragment version, and the payload as a view over data (zero-copy; the
// payload stays aliased to the receive buffer, which bat.UnmarshalView
// relies on).
func decodeDataMsg(data []byte) (core.BATMsg, int, []byte, error) {
	if err := checkEnvHeader(data, envKindData, dataHdrSize); err != nil {
		return core.BATMsg{}, 0, nil, err
	}
	m, ver, payloadLen := decodeDataHdr(data)
	if payloadLen != len(data)-dataHdrSize {
		return core.BATMsg{}, 0, nil, fmt.Errorf("%w: payload length %d, have %d bytes",
			errEnvelope, payloadLen, len(data)-dataHdrSize)
	}
	return m, ver, data[dataHdrSize:], nil
}

func pad8(n int) int { return (n + 7) &^ 7 }

// batchEntry is one fragment inside a batch envelope: exactly the
// triple a v2 data message carries.
type batchEntry struct {
	m       core.BATMsg
	ver     int
	payload []byte
}

// batchEntryWire is the wire cost of one batch entry: its header plus
// the payload padded to 8 bytes.
func batchEntryWire(payloadLen int) int { return dataHdrSize + pad8(payloadLen) }

// isBatchMsg reports whether data starts like a v3 batch envelope (the
// receive loop's dispatch test; full validation happens in
// decodeBatchMsg).
func isBatchMsg(data []byte) bool {
	return len(data) >= 4 && data[0] == envMagic0 && data[1] == envMagic1 &&
		data[2] == envVersionBatch && data[3] == envKindBatch
}

// encodeBatch appends the v3 batch envelope for entries to dst. The hop
// scheduler normally assembles the same bytes as a vectored send (the
// header block and the cached payloads go to the wire without being
// gathered first); this contiguous form is the reference encoding the
// framing tests hold that path to.
func encodeBatch(dst []byte, entries []batchEntry) []byte {
	dst = append(dst, envMagic0, envMagic1, envVersionBatch, envKindBatch)
	var b4 [4]byte
	binary.LittleEndian.PutUint32(b4[:], uint32(len(entries)))
	dst = append(dst, b4[:]...)
	var hdr [dataHdrSize]byte
	for _, e := range entries {
		encodeDataHdr(hdr[:], e.m, e.ver, len(e.payload))
		dst = append(dst, hdr[:]...)
	}
	var zeros [8]byte
	for _, e := range entries {
		dst = append(dst, e.payload...)
		dst = append(dst, zeros[:pad8(len(e.payload))-len(e.payload)]...)
	}
	return dst
}

// decodeBatchMsg parses a v3 batch envelope. Every entry header is
// validated as a complete v2 data header, payload bounds are checked
// entry by entry, and the message must be consumed exactly — trailing
// bytes, a truncated entry table, or an overflowing count are all
// rejected rather than partially decoded. Payloads are zero-copy views
// over data.
func decodeBatchMsg(data []byte) ([]batchEntry, error) {
	if len(data) < batchHdrSize {
		return nil, fmt.Errorf("%w: %d bytes, need %d", errEnvelope, len(data), batchHdrSize)
	}
	if data[0] != envMagic0 || data[1] != envMagic1 {
		return nil, fmt.Errorf("%w: bad magic %q", errEnvelope, data[:2])
	}
	if data[2] != envVersionBatch {
		return nil, fmt.Errorf("%w: version %d (want %d)", errEnvelope, data[2], envVersionBatch)
	}
	if data[3] != envKindBatch {
		return nil, fmt.Errorf("%w: kind %d (want %d)", errEnvelope, data[3], envKindBatch)
	}
	count := int64(binary.LittleEndian.Uint32(data[4:]))
	if count < 1 || count > maxHopBatchFrags {
		return nil, fmt.Errorf("%w: batch count %d (want 1..%d)", errEnvelope, count, maxHopBatchFrags)
	}
	// int64 math: a hostile count can't overflow the table-end offset.
	tableEnd := int64(batchHdrSize) + count*dataHdrSize
	if tableEnd > int64(len(data)) {
		return nil, fmt.Errorf("%w: truncated entry table (%d entries, %d bytes)",
			errEnvelope, count, len(data))
	}
	entries := make([]batchEntry, count)
	off := int(tableEnd)
	for i := range entries {
		h := data[batchHdrSize+i*dataHdrSize:][:dataHdrSize]
		if err := checkEnvHeader(h, envKindData, dataHdrSize); err != nil {
			return nil, fmt.Errorf("batch entry %d: %w", i, err)
		}
		m, ver, payloadLen := decodeDataHdr(h)
		if payloadLen > len(data)-off {
			return nil, fmt.Errorf("%w: batch entry %d payload of %d bytes exceeds message",
				errEnvelope, i, payloadLen)
		}
		entries[i] = batchEntry{m: m, ver: ver, payload: data[off : off+payloadLen]}
		off += pad8(payloadLen)
		if off > len(data) {
			return nil, fmt.Errorf("%w: batch entry %d padding runs past message end", errEnvelope, i)
		}
	}
	if off != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes after batch entries", errEnvelope, len(data)-off)
	}
	return entries, nil
}

// encodeReqMsg writes the envelope for m into dst[:reqMsgSize].
func encodeReqMsg(dst []byte, m core.RequestMsg) {
	putEnvHeader(dst, envKindReq)
	le := binary.LittleEndian
	le.PutUint32(dst[4:], 0)
	le.PutUint64(dst[8:], uint64(m.Origin))
	le.PutUint64(dst[16:], uint64(m.BAT))
}

// decodeReqMsg parses a request envelope.
func decodeReqMsg(data []byte) (core.RequestMsg, error) {
	if err := checkEnvHeader(data, envKindReq, reqMsgSize); err != nil {
		return core.RequestMsg{}, err
	}
	le := binary.LittleEndian
	return core.RequestMsg{
		Origin: core.NodeID(le.Uint64(data[8:])),
		BAT:    core.BATID(le.Uint64(data[16:])),
	}, nil
}

// Beat envelope (version 2, kind 4): the membership heartbeat pulse,
// multiplexed onto the data link so liveness rides the same path as the
// payloads it vouches for (a link that can't carry beats can't carry
// data either). The pulse gossips the sender's whole membership view —
// one status byte per ring position plus the view version — which is
// what makes detection converge ring-wide in O(ring) hops.
//
//	[0] 'D'  [1] 'R'  [2] 2 (version)  [3] 4 (kind)
//	[4:8]   u32 status count
//	[8:16]  u64 sender ring position
//	[16:24] u64 view version
//	[24:24+count] status bytes (membership.Status)
const (
	envKindBeat = 4
	beatHdrSize = 24

	// maxBeatNodes bounds the status table a beat may carry; the
	// receiver rejects anything larger, so a corrupt count can't drive
	// a huge allocation.
	maxBeatNodes = 1 << 16
)

// beatMsgSize is the exact wire size of a beat over nodes ring members.
func beatMsgSize(nodes int) int { return beatHdrSize + nodes }

// isBeatMsg reports whether data is a beat envelope.
func isBeatMsg(data []byte) bool {
	return len(data) >= beatHdrSize && data[0] == envMagic0 && data[1] == envMagic1 &&
		data[2] == envVersion && data[3] == envKindBeat
}

// encodeBeatMsg writes a beat from ring position from carrying view.
func encodeBeatMsg(dst []byte, from int, view membership.View) int {
	putEnvHeader(dst, envKindBeat)
	le := binary.LittleEndian
	le.PutUint32(dst[4:], uint32(len(view.Status)))
	le.PutUint64(dst[8:], uint64(from))
	le.PutUint64(dst[16:], uint64(view.Version))
	for i, s := range view.Status {
		dst[beatHdrSize+i] = byte(s)
	}
	return beatMsgSize(len(view.Status))
}

// decodeBeatMsg parses a beat envelope.
func decodeBeatMsg(data []byte) (from int, view membership.View, err error) {
	if err := checkEnvHeader(data, envKindBeat, beatHdrSize); err != nil {
		return 0, membership.View{}, err
	}
	le := binary.LittleEndian
	count := int(le.Uint32(data[4:]))
	if count > maxBeatNodes {
		return 0, membership.View{}, fmt.Errorf("%w: beat over %d nodes", errEnvelope, count)
	}
	if len(data) != beatHdrSize+count {
		return 0, membership.View{}, fmt.Errorf("%w: beat carries %d status bytes, header says %d",
			errEnvelope, len(data)-beatHdrSize, count)
	}
	view.Version = int64(le.Uint64(data[16:]))
	view.Status = make([]membership.Status, count)
	for i := range view.Status {
		view.Status[i] = membership.Status(data[beatHdrSize+i])
	}
	return int(le.Uint64(data[8:])), view, nil
}
