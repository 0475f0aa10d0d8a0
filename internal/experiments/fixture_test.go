package experiments

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/bat"
	"repro/internal/mal"
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
