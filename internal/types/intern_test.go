package types

import (
	"bytes"
	"testing"
)

func TestInternerCodesMirrorEq(t *testing.T) {
	in := NewInterner()
	vals := []Value{
		C("a"), C("b"), C("a"), C(""), C("1"),
		NewVar(0, "v0"), NewVar(1, "v1"), NewVar(1, "again"),
	}
	for i, v := range vals {
		for j, w := range vals {
			sameCode := in.Code(v) == in.Code(w)
			if sameCode != v.Eq(w) {
				t.Fatalf("code equality diverges from Eq for %#v vs %#v (i=%d j=%d)", v, w, i, j)
			}
		}
	}
}

func TestInternerNamespacesDisjoint(t *testing.T) {
	in := NewInterner()
	// Constant "1" and variable id 1 must never share a code, whatever the
	// intern order.
	c := in.Code(C("1"))
	v := in.Code(NewVar(1, "v1"))
	if c == v {
		t.Fatal("constant and variable codes collide")
	}
	if c&1 != 1 {
		t.Fatalf("constant code %d not in the odd namespace", c)
	}
	if v&1 != 0 {
		t.Fatalf("variable code %d not in the even namespace", v)
	}
	// Negative variable identities wrap but stay even.
	if in.Code(NewVar(-3, "neg"))&1 != 0 {
		t.Fatal("negative variable id left the even namespace")
	}
}

func TestInternerStable(t *testing.T) {
	in := NewInterner()
	first := in.Const("x")
	in.Const("y")
	if in.Const("x") != first {
		t.Fatal("re-interning must return the original code")
	}
	if in.Len() != 2 {
		t.Fatalf("Len = %d, want 2", in.Len())
	}
}

func TestAppendKeyInjective(t *testing.T) {
	// Concatenated encodings must be uniquely decodable even when
	// constants contain control bytes: a terminator-based encoding would
	// confuse ("a\x00\x02b", "c") with ("a", "b\x00\x02c").
	enc := func(vals ...Value) string {
		var b []byte
		for _, v := range vals {
			b = AppendKey(b, v)
		}
		return string(b)
	}
	pairs := [][2][]Value{
		{{C("a\x00\x02b"), C("c")}, {C("a"), C("b\x00\x02c")}},
		{{C("a\x00x"), C("c")}, {C("a"), C("x\x00c")}},
		{{C("ab"), C("")}, {C("a"), C("b")}},
		{{C("1")}, {NewVar(1, "v1")}},
		{{C("")}, {}},
	}
	for _, p := range pairs {
		if enc(p[0]...) == enc(p[1]...) {
			t.Fatalf("distinct value sequences %v and %v share a key", p[0], p[1])
		}
	}
	if enc(C("x"), C("y")) != enc(C("x"), C("y")) {
		t.Fatal("equal sequences must share a key")
	}
}

func TestKeyLenMatchesAppendKey(t *testing.T) {
	long := make([]byte, 300)
	for i := range long {
		long[i] = 'x'
	}
	vals := []Value{
		C(""), C("a"), C(string(long[:127])), C(string(long[:128])), C(string(long)),
		NewVar(0, "v0"), NewVar(-7, "neg"),
	}
	for _, v := range vals {
		if got, want := KeyLen(v), len(AppendKey(nil, v)); got != want {
			t.Fatalf("KeyLen(%#v) = %d, AppendKey writes %d", v, got, want)
		}
	}
}

// TestAppendConstKeyMatchesAppendKey: the raw-bytes form of a constant's
// key is the key AppendKey writes for the constant.
func TestAppendConstKeyMatchesAppendKey(t *testing.T) {
	for _, s := range []string{"", "a", "NYC", string(make([]byte, 200)), "\x02\x00"} {
		got := AppendConstKey([]byte("pre"), []byte(s))
		want := AppendKey([]byte("pre"), C(s))
		if !bytes.Equal(got, want) {
			t.Fatalf("AppendConstKey(%q) = %q, AppendKey = %q", s, got, want)
		}
	}
}

func TestInternerConcurrentReads(t *testing.T) {
	// Interning is single-writer, but codes may be read from many
	// goroutines once interning is done — the engine's fan-out pattern.
	in := NewInterner()
	words := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	want := make([]uint64, len(words))
	for i, s := range words {
		want[i] = in.Const(s)
	}
	done := make(chan bool, 8)
	for w := 0; w < 8; w++ {
		go func() {
			ok := true
			for i, s := range words {
				if in.Const(s) != want[i] { // re-interning existing keys only reads
					ok = false
				}
			}
			done <- ok
		}()
	}
	for w := 0; w < 8; w++ {
		if !<-done {
			t.Fatal("concurrent readers saw inconsistent codes")
		}
	}
}
