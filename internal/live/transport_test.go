package live

import (
	"reflect"
	"sort"
	"testing"
)

func TestTCPRingExecutesSQL(t *testing.T) {
	cols, schema := testColumns()
	cfg := DefaultConfig()
	cfg.Transport = TCP
	r, err := NewRing(3, cols, schema, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	rs, err := r.Node(1).ExecSQL("select c.t_id from t, c where c.t_id = t.id")
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	for _, row := range rs.Rows() {
		got = append(got, row[0].(int64))
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if want := []int64{2, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("result over TCP = %v, want %v", got, want)
	}
}

func TestTCPRingMatchesInProc(t *testing.T) {
	query := "select t.name, c.val from t, c where c.t_id = t.id and c.val > 150 order by c.val"
	results := map[Transport][][]any{}
	for _, tr := range []Transport{InProc, TCP} {
		cols, schema := testColumns()
		cfg := DefaultConfig()
		cfg.Transport = tr
		r, err := NewRing(2, cols, schema, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := r.Node(0).ExecSQL(query)
		if err != nil {
			r.Close()
			t.Fatalf("transport %d: %v", tr, err)
		}
		results[tr] = rs.Rows()
		r.Close()
	}
	if !reflect.DeepEqual(results[InProc], results[TCP]) {
		t.Fatalf("transports disagree:\ninproc: %v\ntcp:    %v", results[InProc], results[TCP])
	}
}

func TestUnknownTransport(t *testing.T) {
	cols, schema := testColumns()
	cfg := DefaultConfig()
	cfg.Transport = Transport(99)
	if _, err := NewRing(2, cols, schema, cfg); err == nil {
		t.Fatal("expected error")
	}
}
