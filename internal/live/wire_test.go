package live

import (
	"bytes"
	"testing"

	"repro/internal/bat"
	"repro/internal/core"
	"repro/internal/membership"
)

func TestEnvelopeDataRoundtrip(t *testing.T) {
	payload := bat.AppendMarshal(nil, bat.MakeInts("x", []int64{1, 2, 3}))
	m := core.BATMsg{Owner: 3, BAT: 42, Size: 100, LOI: 0.75, Copies: 2, Hops: 9, Cycles: 4}
	const ver = 7
	buf := make([]byte, dataHdrSize+len(payload))
	encodeDataHdr(buf, m, ver, len(payload))
	copy(buf[dataHdrSize:], payload)

	got, gotVer, gotPayload, err := decodeDataMsg(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Fatalf("header roundtrip: got %+v want %+v", got, m)
	}
	if gotVer != ver {
		t.Fatalf("fragment version roundtrip: got %d want %d", gotVer, ver)
	}
	b, err := bat.UnmarshalView(gotPayload)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 3 || b.Tail().Int(2) != 3 {
		t.Fatal("payload corrupted through the envelope")
	}
}

func TestEnvelopeReqRoundtrip(t *testing.T) {
	m := core.RequestMsg{Origin: 7, BAT: 12345}
	var buf [reqMsgSize]byte
	encodeReqMsg(buf[:], m)
	got, err := decodeReqMsg(buf[:])
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Fatalf("got %+v want %+v", got, m)
	}
}

// corruptEnvelopes are messages the single-fragment data decoder must
// refuse: a valid empty data envelope with one thing wrong, and a
// well-formed v3 batch, which only the batch decoder reads.
func corruptEnvelopes() []struct {
	name string
	data []byte
} {
	buf := emptyDataEnvelope()
	return []struct {
		name string
		data []byte
	}{
		{"short", buf[:10]},
		{"empty", nil},
		{"bad magic", append([]byte{'X', 'X'}, buf[2:]...)},
		{"bad version", append([]byte{'D', 'R', 99}, buf[3:]...)},
		{"wrong kind", append([]byte{'D', 'R', envVersion, envKindReq}, buf[4:]...)},
		{"length mismatch", append(append([]byte(nil), buf...), 0xFF)},
		{"v3 batch", encodeBatch(nil, batchCases()[:2])},
	}
}

func TestEnvelopeRejectsCorruption(t *testing.T) {
	for _, mut := range corruptEnvelopes() {
		if _, _, _, err := decodeDataMsg(mut.data); err == nil {
			t.Fatalf("%s: accepted", mut.name)
		}
	}
	if _, err := decodeReqMsg(emptyDataEnvelope()); err == nil {
		t.Fatal("request decoder accepted a data envelope")
	}
}

// emptyDataEnvelope is a valid data envelope with no payload.
func emptyDataEnvelope() []byte {
	return encodeSingle(batchEntry{m: core.BATMsg{BAT: 1, Size: 10}})
}

// FuzzDataLinkMessage drives every decoder a ring link reaches with
// arbitrary bytes. None may panic, and what the data link accepts must
// re-encode to the input exactly: a data envelope (header plus
// payload), a batch envelope and a beat. The request decoder reads
// fixed fields only; it is held to not panicking.
func FuzzDataLinkMessage(f *testing.F) {
	for _, c := range corruptEnvelopes() {
		f.Add(c.data)
	}
	f.Add([]byte{'D', 'R', envVersionBatch, envKindBatch, 2, 0, 0, 0})
	f.Add(encodeBatch(nil, batchCases()))
	f.Add(encodeSingle(batchCases()[1]))
	beat := make([]byte, beatMsgSize(3))
	encodeBeatMsg(beat, 2, membership.View{Version: 5, Status: []membership.Status{0, 1, 2}})
	f.Add(beat)
	var req [reqMsgSize]byte
	encodeReqMsg(req[:], core.RequestMsg{Origin: 1, BAT: 9})
	f.Add(req[:])
	f.Fuzz(func(t *testing.T, data []byte) {
		if m, ver, payload, err := decodeDataMsg(data); err == nil {
			if !bytes.Equal(encodeSingle(batchEntry{m, ver, payload}), data) {
				t.Fatal("accepted data envelope does not re-encode to itself")
			}
		}
		if entries, err := decodeBatchMsg(data); err == nil {
			if !bytes.Equal(encodeBatch(nil, entries), data) {
				t.Fatal("accepted batch does not re-encode to itself")
			}
		}
		if from, view, err := decodeBeatMsg(data); err == nil {
			buf := make([]byte, beatMsgSize(len(view.Status)))
			encodeBeatMsg(buf, from, view)
			if !bytes.Equal(buf, data) {
				t.Fatal("accepted beat does not re-encode to itself")
			}
		}
		decodeReqMsg(data)
	})
}

// TestExactMessageSizing drives the exact-sizing contract end to end: a
// published intermediate at precisely the ring limit is accepted, one
// byte over is refused — no slack fudge in either direction.
func TestExactMessageSizing(t *testing.T) {
	r := newTestRing(t, 2)
	defer r.Close()
	n := r.Node(0)

	limit := n.ring.MaxMessage()
	// Binary-search the largest int column that fits the limit exactly.
	fits := func(rows int) bool {
		return dataHdrSize+bat.MarshalSize(bat.MakeInts("probe", make([]int64, rows))) <= limit
	}
	lo, hi := 0, limit/8+2
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if fits(mid) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	if _, err := n.Publish("fit.exact", bat.MakeInts("fit", make([]int64, lo))); err != nil {
		t.Fatalf("fragment at the limit rejected: %v", err)
	}
	if _, err := n.Publish("fit.over", bat.MakeInts("over", make([]int64, lo+1))); err == nil {
		t.Fatal("fragment over the limit accepted")
	}
}
