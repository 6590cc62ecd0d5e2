package analysis

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"iolayers/internal/iosim/systems"
)

// fillDistinct sets every field reachable from v to a non-zero value no
// other field holds: numbers count up (signed ones alternate sign, so the
// zigzag path is taken), strings are numbered, bools are true, and every
// map gets two entries and every slice two elements.
func fillDistinct(v reflect.Value, next func() uint64) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		n := int64(next())
		if n%2 == 1 {
			n = -n
		}
		v.SetInt(n)
	case reflect.Uint8:
		v.SetUint(next()%250 + 1)
	case reflect.Uint64:
		v.SetUint(next())
	case reflect.Float64:
		v.SetFloat(float64(next()) + 0.25)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%03d", next()))
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillDistinct(v.Index(i), next)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fillDistinct(v.Index(i), next)
		}
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		for i := 0; i < 2; i++ {
			k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			fillDistinct(k, next)
			fillDistinct(e, next)
			v.SetMapIndex(k, e)
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillDistinct(v.Elem(), next)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillDistinct(v.Field(i), next)
		}
	default:
		panic(fmt.Sprintf("fillDistinct: no rule for %s", v.Type()))
	}
}

func encodeState(t testing.TB, st *AggregatorState) []byte {
	t.Helper()
	b, err := st.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestStateLayoutCoversEveryField is what a self-describing encoder gave
// for free: every field of the state and of everything it holds survives
// an encode and a decode. A field added to any of these types without a
// change to the layout (and its version) is set here and lost there.
func TestStateLayoutCoversEveryField(t *testing.T) {
	var n uint64
	var st AggregatorState
	fillDistinct(reflect.ValueOf(&st).Elem(), func() uint64 { n++; return n })
	var got AggregatorState
	if err := got.UnmarshalBinary(encodeState(t, &st)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, &st) {
		t.Fatalf("a field did not survive the layout:\n got %+v\nwant %+v", got, st)
	}
}

// fixtureStates are encoded states of stateLogs folded one, two and three
// at a time, plus an empty aggregator's.
func fixtureStates(t testing.TB) [][]byte {
	t.Helper()
	sys := systems.NewSummit()
	a := NewAggregator(sys)
	out := [][]byte{encodeState(t, a.State())}
	for _, log := range stateLogs(t, sys) {
		a.AddLog(log)
		out = append(out, encodeState(t, a.State()))
	}
	return out
}

// TestStateDecodeRefuses pins the decoder's refusals by name.
func TestStateDecodeRefuses(t *testing.T) {
	states := fixtureStates(t)
	full := states[len(states)-1]
	for _, c := range []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "empty state"},
		{"unknown version", append([]byte{stateVersion + 1}, full[1:]...), "version 2"},
		{"trailing bytes", append(append([]byte(nil), full...), 0), "1 trailing bytes"},
		{"truncated", full[:len(full)-1], "malformed"},
		{"count past the input", []byte{stateVersion, 0xff, 0xff, 0x03}, "exceeds"},
	} {
		var st AggregatorState
		if err := st.UnmarshalBinary(c.data); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one naming %q", c.name, err, c.want)
		}
	}
}

// FuzzStateDecode feeds the state decoder arbitrary bytes. It must never
// panic, and whatever it accepts must re-encode to bytes that decode to
// the same state and encode again to the same bytes.
func FuzzStateDecode(f *testing.F) {
	for _, b := range fixtureStates(f) {
		f.Add(b)
		for cut := 1; cut < len(b); cut += 1 + len(b)/16 {
			f.Add(b[:cut])
		}
		for at := 1; at < len(b); at += 1 + len(b)/16 {
			flipped := append([]byte(nil), b...)
			flipped[at] ^= 1 << (at % 8)
			f.Add(flipped)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var first AggregatorState
		if first.UnmarshalBinary(data) != nil {
			return
		}
		enc := encodeState(t, &first)
		var second AggregatorState
		if err := second.UnmarshalBinary(enc); err != nil {
			t.Fatalf("the decoder refuses what the encoder wrote: %v", err)
		}
		if again := encodeState(t, &second); !bytes.Equal(again, enc) {
			t.Fatal("re-encoding a decoded state changed its bytes")
		}
		// reflect.DeepEqual holds NaN unequal to itself; a state holding
		// one is judged by its bytes alone.
		var third AggregatorState
		third.UnmarshalBinary(enc)
		if reflect.DeepEqual(&second, &third) && !reflect.DeepEqual(&first, &second) {
			t.Fatal("decode → encode → decode changed the state")
		}
	})
}
