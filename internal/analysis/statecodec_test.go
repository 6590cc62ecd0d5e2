package analysis

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"iolayers/internal/iosim/systems"
	"iolayers/internal/stats"
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

// stateV1 is an empty Summit aggregator's state in layout version 1, which
// wrote every array dense; this build refuses it by name.
const stateV1 = "010653756d6d69748010000000000000000000000000000000000000000000000000000000000000000000000000000600000000000006000000000000000a000000000000000000000a000000000000000000000a000000000000000000000a000000000000000000000000000000000000000a000000000000000000000a0000000000000000000000000000000000000600000000000006000000000000000a000000000000000000000a000000000000000000000a000000000000000000000a000000000000000000000000000000000000000a000000000000000000000a000000000000000000000000000000"

func mustHex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// stateBytes is a hand-written state: the version, then the fields
// through the domain dictionary of an empty state (System "", zeros, no
// months, no domains), then rest.
func stateBytes(rest ...byte) []byte {
	return append([]byte{stateVersion, 0, 0, 0, 0, 0, 0, 0}, rest...)
}

// stateRefusal is an input the state decoder must refuse, with what the
// refusal must name.
type stateRefusal struct {
	name string
	data []byte
	want string
}

// stateRefusals lists the decoder's refusals: among them every form of the
// sparse arrays and the coverage bits that the encoder never writes, so
// each state has one encoding.
func stateRefusals(t testing.TB) []stateRefusal {
	t.Helper()
	states := fixtureStates(t)
	full := states[len(states)-1]
	// Jobs, residue, Tuning, UserBytes and UserFiles empty, then a layer
	// up to its first histogram.
	toHist := []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	return []stateRefusal{
		{"empty", nil, "empty state"},
		{"unknown version", append([]byte{stateVersion + 1}, full[1:]...), fmt.Sprintf("version %d", stateVersion+1)},
		{"version 1", mustHex(t, stateV1), "state layout version 1,"},
		{"trailing bytes", append(append([]byte(nil), full...), 0), "1 trailing bytes"},
		{"truncated", full[:len(full)-1], "malformed"},
		{"count past the input", []byte{stateVersion, 0xff, 0xff, 0x03}, "exceeds"},
		{"marked zero", []byte{stateVersion, 0, 0, 0, 0, 1, 0}, "marks a zero"},
		{"mask bit past the array", []byte{stateVersion, 0, 0, 0, 0, 0x80, 0x20, 1}, "mask bit past an array of 12"},
		{"histogram mask bit past its bins", stateBytes(append(toHist, 10, 0x80, 0x08, 1)...), "mask bit past an array of 10"},
		{"histogram marks a zero bin", stateBytes(append(toHist, 10, 2, 0)...), "marks a zero"},
		{"histogram wider than a mask", stateBytes(append(toHist, 65)...), "65 bins is wider than 64"},
		{"perf cell marked empty", stateBytes(append(toHist, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0)...), "marks a zero"},
		{"unknown job-flag bits", stateBytes(1, 7, 1<<5), "names a domain past the dictionary"},
		{"residue id that is a job", stateBytes(1, 7, 0, 1, 7, 1), "residue names a job"},
		{"residue without flags", stateBytes(0, 1, 7, 0), "unknown coverage residue flags"},
		{"unknown residue flags", stateBytes(0, 1, 7, 4), "unknown coverage residue flags"},
	}
}

// TestStateDecodeRefuses pins the decoder's refusals by name.
func TestStateDecodeRefuses(t *testing.T) {
	for _, c := range stateRefusals(t) {
		var st AggregatorState
		if err := st.UnmarshalBinary(c.data); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one naming %q", c.name, err, c.want)
		}
	}
}

// TestStateEncodeRefusesWideHistogram: a histogram wider than one mask
// can mark is refused at encode time, not written in a form the decoder
// refuses.
func TestStateEncodeRefusesWideHistogram(t *testing.T) {
	st := NewAggregator(systems.NewSummit()).State()
	st.Layers[0].TransferHist[0] = stats.NewHistogram(maxSparse + 1)
	if _, err := st.MarshalBinary(); err == nil || !strings.Contains(err.Error(), "65 bins") {
		t.Errorf("encoding a %d-bin histogram: err = %v, want a refusal naming its width", maxSparse+1, err)
	}
	st.Layers[0].TransferHist[0] = stats.NewHistogram(maxSparse)
	st.Layers[0].TransferHist[0].Counts[maxSparse-1] = 3
	b := encodeState(t, st)
	var got AggregatorState
	if err := got.UnmarshalBinary(b); err != nil || got.Layers[0].TransferHist[0].Counts[maxSparse-1] != 3 {
		t.Errorf("a %d-bin histogram did not round-trip: %v", maxSparse, err)
	}
}

// FuzzStateDecode feeds the state decoder arbitrary bytes. It must never
// panic, and whatever it accepts must re-encode to bytes that decode to
// the same state and encode again to the same bytes.
func FuzzStateDecode(f *testing.F) {
	f.Add(mustHex(f, stateV1))
	for _, c := range stateRefusals(f) {
		f.Add(c.data)
	}
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
		if err := first.UnmarshalBinary(data); err != nil {
			if len(data) > 0 && data[0] != stateVersion && !strings.Contains(err.Error(), fmt.Sprintf("state layout version %d,", data[0])) {
				t.Fatalf("a state of another version is refused without naming it: %v", err)
			}
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
