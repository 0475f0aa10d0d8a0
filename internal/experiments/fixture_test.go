package experiments

import (
	"fmt"
	"net"
	"slices"
	"testing"
	"time"

	"repro/internal/bat"
	"repro/internal/live"
	"repro/internal/mal"
	"repro/internal/server"
	"repro/internal/tpch"
)

// resultOf builds a three-column answer (int, decimal float, string)
// from rows given as positions into one seeded table, in that order;
// narrow stores the columns as the ring ships them, in codes. Column
// changed, if any, differs in the cell at position len(order)/3.
func resultOf(order []int, narrow bool, changed int) *mal.ResultSet {
	keys, prices, flags := make([]int64, len(order)), make([]float64, len(order)), make([]string, len(order))
	for i, r := range order {
		keys[i] = int64(1000 + 7*r)
		prices[i] = float64(90000+r*13%10000) / 100
		flags[i] = []string{"A", "N", "R"}[r%3]
	}
	switch at := len(order) / 3; changed {
	case 0:
		keys[at]++
	case 1:
		prices[at] += 0.01
	case 2:
		flags[at] += "x"
	}
	rs := &mal.ResultSet{Names: []string{"key", "price", "flag"}}
	for i, t := range []*bat.Column{bat.IntColumn(keys), bat.FloatColumn(prices), bat.StrColumn(flags)} {
		b := bat.New(rs.Names[i], bat.DenseColumn(0, len(order)), t)
		if narrow {
			b = bat.Narrow(b)
		}
		rs.Cols = append(rs.Cols, b)
	}
	return rs
}

// TestReferenceMatches holds StartLoad's answer check to the
// fingerprint it replaced: an equal answer, in codes or in 8-byte
// values, matches without a fingerprint being taken; the same rows in
// another order still match; one changed cell in any column fails, in
// order or reordered; and a reference known only by its fingerprint
// (LoadSpec.Refs) accepts what that fingerprint accepts.
func TestReferenceMatches(t *testing.T) {
	const n = 500
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	reversed := slices.Clone(order)
	slices.Reverse(reversed)
	first := resultOf(order, true, -1)
	fingerprints := 0
	ref := &reference{rs: first, fp: func() string {
		fingerprints++
		return fingerprintRows(first.Rows())
	}}
	for _, narrow := range []bool{true, false} {
		if !ref.matches(resultOf(order, narrow, -1)) {
			t.Fatalf("an equal answer (narrow %v) does not match", narrow)
		}
	}
	if fingerprints != 0 {
		t.Fatalf("equal answers took %d fingerprints, want 0", fingerprints)
	}
	if !ref.matches(resultOf(reversed, true, -1)) {
		t.Fatal("the same rows in reverse order do not match")
	}
	if fingerprints != 1 {
		t.Fatalf("a reordered answer took %d fingerprints, want 1", fingerprints)
	}
	byFingerprint := &reference{fp: func() string { return fingerprintRows(first.Rows()) }}
	if !byFingerprint.matches(resultOf(reversed, false, -1)) {
		t.Fatal("a fingerprint reference rejects its own rows reordered")
	}
	for c := range first.Cols {
		for _, rows := range [][]int{order, reversed} {
			for _, narrow := range []bool{true, false} {
				changed := resultOf(rows, narrow, c)
				what := fmt.Sprintf("column %d changed (reversed %v, narrow %v)", c, rows[0] != 0, narrow)
				if ref.matches(changed) {
					t.Fatalf("%s: matches the reference", what)
				}
				if byFingerprint.matches(changed) {
					t.Fatalf("%s: matches the fingerprint reference", what)
				}
			}
		}
	}
}

// TestLoadQueriesAfterEveryDial: no query runs, and so Third stays
// open, while one session's dial is still waiting for its handshake;
// once that dial fails, the other session drains the whole budget and
// the failed dial counts as one hard failure. The failover and join
// sweeps kill or add a node at Third, and a session still dialling then
// fails against the killed node.
func TestLoadQueriesAfterEveryDial(t *testing.T) {
	s, err := ServeRing(2, tpch.GenDB(tpch.SFForLineitemRows(1<<12), 1), live.DefaultConfig(), server.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// A listener that accepts and never says hello: the dial to it
	// waits until the test hangs up.
	mute, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer mute.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		if c, err := mute.Accept(); err == nil {
			accepted <- c
		}
	}()
	const queries = 30
	load := StartLoad(LoadSpec{Targets: []string{s.Srv.Addrs()[0], mute.Addr().String()}, Clients: 2,
		Queries: queries, Mix: []string{tpch.Q6ishSQL}, Timeout: 10 * time.Second})
	conn := <-accepted
	select {
	case <-load.Third():
		t.Fatal("a third of the budget completed while a session was still dialling")
	case <-time.After(200 * time.Millisecond):
	}
	conn.Close()
	res := load.Wait()
	if res.OK != queries || res.Failed != 1 || res.Incorrect != 0 || res.Rejected != 0 {
		t.Fatalf("ok=%d failed=%d incorrect=%d rejected=%d, want ok=%d failed=1 (the mute dial)\n%v",
			res.OK, res.Failed, res.Incorrect, res.Rejected, queries, res.Errors)
	}
}
