package spill

import (
	"errors"
	"testing"

	"supmr/internal/kv"
)

func TestRecordsRoundTrip(t *testing.T) {
	rec, err := NewRecords[string, int64]()
	if err != nil {
		t.Fatal(err)
	}
	pairs := []kv.Pair[string, int64]{{Key: "", Val: -1}, {Key: "alpha", Val: 3}, {Key: "beta", Val: 1 << 40}}
	var buf []byte
	for _, p := range pairs {
		buf = rec.Append(buf, p)
	}
	got, err := rec.DecodeAll(buf, len(pairs))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(pairs) {
		t.Fatalf("decoded %d pairs, want %d", len(got), len(pairs))
	}
	for i := range pairs {
		if got[i] != pairs[i] {
			t.Fatalf("pair %d = %+v, want %+v", i, got[i], pairs[i])
		}
	}
	// A record cut short is a framing error, never a short decode.
	if _, err := rec.DecodeAll(buf[:len(buf)-1], len(pairs)); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("truncated buffer: %v, want ErrBadRecord", err)
	}
	if _, err := NewRecords[string, []string](); err == nil {
		t.Fatal("[]string values have no codec; NewRecords must refuse")
	}
}

func FuzzReadRecord(f *testing.F) {
	f.Add(AppendRecord(nil, []byte("k"), []byte("v")))
	f.Add([]byte{0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, p []byte) {
		rest := p
		for len(rest) > 0 {
			key, val, r, err := ReadRecord(rest)
			if err != nil {
				if !errors.Is(err, ErrBadRecord) {
					t.Fatalf("untyped record error: %v", err)
				}
				return
			}
			if len(key)+len(val) > len(rest) {
				t.Fatal("record fields exceed input")
			}
			if len(r) >= len(rest) {
				t.Fatal("no forward progress")
			}
			rest = r
		}
	})
}
