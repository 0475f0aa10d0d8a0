package live

import (
	"reflect"
	"sort"
	"testing"
)

func TestTCPRingExecutesSQL(t *testing.T) {
	cols, schema := testColumns()
	cfg := DefaultConfig()
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

func TestUnknownTransport(t *testing.T) {
	cols, schema := testColumns()
	cfg := DefaultConfig()
	cfg.Transport = Transport(99)
	if _, err := NewRing(2, cols, schema, cfg); err == nil {
		t.Fatal("expected error")
	}
}
