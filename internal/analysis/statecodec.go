package analysis

// The persisted layout of an AggregatorState: what a lake record and a
// checkpoint carry. It is specified by hand rather than left to a
// self-describing encoder so that it is small (no type definitions in every
// record) and canonical: equal states are equal bytes, whatever order the
// maps were filled in, which is what lets a hash of the bytes name the
// content.
//
// Integers are encoding/binary varints, signed ones zigzag-coded. A float
// is its IEEE bits byte-reversed and written as a uvarint, the trick gob
// uses: the integer-valued sums that make up most of a state (byte counts,
// node-seconds, quantized I/O time) have zero low mantissa bytes, so they
// shrink to two or three bytes. A bandwidth sample has a full mantissa and
// would take nine or ten bytes that way, so samples are raw 8-byte
// little-endian bits. A string is a uvarint length and its bytes.
//
//	version               byte (stateVersion)
//	System                string
//	LargeJobProcs         varint
//	Logs                  varint
//	NodeHours             float
//	MonthlyLogs[12]       varint each
//	MonthlyBytes[12]      float each
//	domain dictionary     uvarint n, then n strings, strictly ascending
//	Jobs                  id set, then per job uvarint(ref<<3 | UsedStdio<<2 | Layers[1]<<1 | Layers[0]),
//	                      ref 0 = no domain, ref k = dictionary[k-1]
//	Tuning                id set, then per user uvarint(Seen[1]<<1 | Seen[0]) and the varints
//	                      MaxStripe[0..1], CollOps[0..1], IndepOps[0..1], JobsInHalf[0..1]
//	UserBytes             id set, then a float per user
//	UserFiles             id set, then a varint per user
//	Layers[0], Layers[1]  layer (a nil layer is written as an empty one)
//	Domains               index set over the dictionary, then per domain the floats
//	                      InSystemBytes[0..1], StdioBytes[0..1]
//	DomainCovered         id set
//	DomainUncovered       id set
//
//	id set     uvarint n, then n uvarints: the first id, then each id's
//	           distance from the one before (never 0: ids ascend strictly)
//	layer      Files varint, Bytes[2] float, HugeFiles[2] varint,
//	           InterfaceFiles: uvarint n, n × (module byte, varint),
//	           TransferHist[2] hist,
//	           InterfaceTransferHist: uvarint n, n × (module byte, hist, hist),
//	           RequestHist[2] hist, LargeJobRequestHist[2] hist,
//	           ClassFiles[3] varint, StdioClassFiles[3] varint,
//	           Perf: uvarint n, n × (module byte, then per direction and
//	           transfer bin: uvarint count, count raw floats in ascending
//	           bit order),
//	           IOTime[2] float, StdioXRequestHist[2] hist,
//	           StdioXRewriteBytes float, StdioXUniqueBytes float
//	hist       uvarint bins, then bins uvarints (0 bins: a nil histogram)
//
// Modules ascend strictly. Map entries whose value is a nil pointer carry
// nothing (a restore skips them) and are not written.
//
// The decoder accepts only what the encoder writes: keys out of order or
// repeated, unknown flag bits, a domain reference past the dictionary,
// samples out of order and trailing bytes are errors, and every count is
// checked against the bytes left before it sizes an allocation. So a state
// decoded from any input re-encodes to bytes that decode to the same state.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"iolayers/internal/darshan"
	"iolayers/internal/stats"
	"iolayers/internal/units"
)

// stateVersion leads the layout. Adding a field to the state, or changing
// how one is written, is a new version: TestStateLayoutCoversEveryField
// fails on a field the layout does not carry.
const stateVersion = 1

// MarshalBinary writes the state in the layout above. It does not modify
// the state.
func (st *AggregatorState) MarshalBinary() ([]byte, error) {
	return st.AppendBinary(make([]byte, 0, 1024))
}

// AppendBinary is MarshalBinary appending to b, for a record that carries
// the state after fields of its own.
func (st *AggregatorState) AppendBinary(b []byte) ([]byte, error) {
	e := stateEncoder{b: b}
	e.b = append(e.b, stateVersion)
	e.str(st.System)
	e.varint(int64(st.LargeJobProcs))
	e.varint(st.Logs)
	e.float(st.NodeHours)
	for _, n := range st.MonthlyLogs {
		e.varint(n)
	}
	for _, v := range st.MonthlyBytes {
		e.float(v)
	}

	// The dictionary is every domain with stats plus any a job names
	// without stats (a fold never leaves one, but a state may).
	domains := sortedKeys(st.Domains, func(ds *DomainStats) bool { return ds != nil })
	dict := domains
	for _, jv := range st.Jobs {
		if _, ok := slices.BinarySearch(dict, jv.Domain); !ok && jv.Domain != "" {
			dict = append(slices.Clip(dict), jv.Domain)
			slices.Sort(dict)
		}
	}
	e.uvarint(uint64(len(dict)))
	for _, d := range dict {
		e.str(d)
	}

	ids := e.ids(sortedKeys(st.Jobs, nil))
	for _, id := range ids {
		jv := st.Jobs[id]
		ref := 0
		if jv.Domain != "" {
			i, _ := slices.BinarySearch(dict, jv.Domain)
			ref = i + 1
		}
		e.uvarint(uint64(ref)<<3 | flag(jv.UsedStdio)<<2 | flag(jv.Layers[1])<<1 | flag(jv.Layers[0]))
	}
	for _, id := range e.ids(sortedKeys(st.Tuning, nil)) {
		ut := st.Tuning[id]
		e.uvarint(flag(ut.Seen[1])<<1 | flag(ut.Seen[0]))
		for _, pair := range [...]*[2]int64{&ut.MaxStripe, &ut.CollOps, &ut.IndepOps, &ut.JobsInHalf} {
			e.varint(pair[0])
			e.varint(pair[1])
		}
	}
	for _, id := range e.ids(sortedKeys(st.UserBytes, nil)) {
		e.float(st.UserBytes[id])
	}
	for _, id := range e.ids(sortedKeys(st.UserFiles, nil)) {
		e.varint(st.UserFiles[id])
	}
	for _, ls := range st.Layers {
		if ls == nil {
			ls = &LayerStats{}
		}
		e.layer(ls)
	}
	refs := make([]uint64, len(domains))
	for i, d := range domains {
		j, _ := slices.BinarySearch(dict, d)
		refs[i] = uint64(j)
	}
	e.ids(refs)
	for _, d := range domains {
		ds := st.Domains[d]
		e.float(ds.InSystemBytes[0])
		e.float(ds.InSystemBytes[1])
		e.float(ds.StdioBytes[0])
		e.float(ds.StdioBytes[1])
	}
	e.ids(sortedKeys(st.DomainCovered, nil))
	e.ids(sortedKeys(st.DomainUncovered, nil))
	return e.b, nil
}

// UnmarshalBinary replaces the state with the one data holds. Data in
// another version of the layout is refused by name, and so is anything
// MarshalBinary would not have written.
func (st *AggregatorState) UnmarshalBinary(data []byte) error {
	if len(data) == 0 {
		return errors.New("analysis: empty state")
	}
	if data[0] != stateVersion {
		return fmt.Errorf("analysis: state layout version %d, but this build reads only version %d", data[0], stateVersion)
	}
	d := stateDecoder{b: data[1:]}
	out := AggregatorState{System: d.str()}
	out.LargeJobProcs = int(d.varint())
	out.Logs = d.varint()
	out.NodeHours = d.float()
	for i := range out.MonthlyLogs {
		out.MonthlyLogs[i] = d.varint()
	}
	for i := range out.MonthlyBytes {
		out.MonthlyBytes[i] = d.float()
	}

	dict := make([]string, d.count(1))
	for i := range dict {
		dict[i] = d.str()
		if i > 0 && dict[i] <= dict[i-1] {
			d.fail("domain dictionary out of order")
		}
	}

	ids := d.ids()
	out.Jobs = make(map[uint64]JobViewState, len(ids))
	for _, id := range ids {
		v := d.uvarint()
		ref := v >> 3
		if ref > uint64(len(dict)) {
			d.fail("job domain reference past the dictionary")
			break
		}
		jv := JobViewState{Layers: [2]bool{v&1 != 0, v&2 != 0}, UsedStdio: v&4 != 0}
		if ref > 0 {
			jv.Domain = dict[ref-1]
		}
		out.Jobs[id] = jv
	}
	ids = d.ids()
	out.Tuning = make(map[uint64]UserTuningState, len(ids))
	for _, id := range ids {
		seen := d.uvarint()
		if seen > 3 {
			d.fail("unknown tuning flags")
		}
		ut := UserTuningState{Seen: [2]bool{seen&1 != 0, seen&2 != 0}}
		for _, pair := range [...]*[2]int64{&ut.MaxStripe, &ut.CollOps, &ut.IndepOps, &ut.JobsInHalf} {
			pair[0] = d.varint()
			pair[1] = d.varint()
		}
		out.Tuning[id] = ut
	}
	ids = d.ids()
	out.UserBytes = make(map[uint64]float64, len(ids))
	for _, id := range ids {
		out.UserBytes[id] = d.float()
	}
	ids = d.ids()
	out.UserFiles = make(map[uint64]int64, len(ids))
	for _, id := range ids {
		out.UserFiles[id] = d.varint()
	}
	for i := range out.Layers {
		out.Layers[i] = d.layer()
	}
	refs := d.ids()
	out.Domains = make(map[string]*DomainStats, len(refs))
	for _, ref := range refs {
		if ref >= uint64(len(dict)) {
			d.fail("domain reference past the dictionary")
			break
		}
		ds := &DomainStats{}
		ds.InSystemBytes[0], ds.InSystemBytes[1] = d.float(), d.float()
		ds.StdioBytes[0], ds.StdioBytes[1] = d.float(), d.float()
		out.Domains[dict[ref]] = ds
	}
	out.DomainCovered = d.set()
	out.DomainUncovered = d.set()
	if d.err == nil && len(d.b) > 0 {
		d.fail(fmt.Sprintf("%d trailing bytes", len(d.b)))
	}
	if d.err != nil {
		return d.err
	}
	*st = out
	return nil
}

func flag(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// sortedKeys returns m's keys in ascending order, leaving out those whose
// value keep (when given) rejects.
func sortedKeys[K uint64 | string | darshan.ModuleID, V any](m map[K]V, keep func(V) bool) []K {
	keys := make([]K, 0, len(m))
	for k, v := range m {
		if keep == nil || keep(v) {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	return keys
}

type stateEncoder struct{ b []byte }

func (e *stateEncoder) uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *stateEncoder) varint(v int64)   { e.b = binary.AppendVarint(e.b, v) }
func (e *stateEncoder) float(f float64)  { e.uvarint(bits.ReverseBytes64(math.Float64bits(f))) }
func (e *stateEncoder) str(s string)     { e.uvarint(uint64(len(s))); e.b = append(e.b, s...) }

// ids writes an ascending id set and returns it.
func (e *stateEncoder) ids(ids []uint64) []uint64 {
	e.uvarint(uint64(len(ids)))
	var prev uint64
	for _, id := range ids {
		e.uvarint(id - prev)
		prev = id
	}
	return ids
}

func (e *stateEncoder) hist(h *stats.Histogram) {
	if h == nil {
		e.uvarint(0)
		return
	}
	e.uvarint(uint64(len(h.Counts)))
	for _, c := range h.Counts {
		e.uvarint(c)
	}
}

func (e *stateEncoder) layer(ls *LayerStats) {
	e.varint(ls.Files)
	e.float(ls.Bytes[0])
	e.float(ls.Bytes[1])
	e.varint(ls.HugeFiles[0])
	e.varint(ls.HugeFiles[1])
	mods := sortedKeys(ls.InterfaceFiles, nil)
	e.uvarint(uint64(len(mods)))
	for _, m := range mods {
		e.b = append(e.b, byte(m))
		e.varint(ls.InterfaceFiles[m])
	}
	e.hist(ls.TransferHist[0])
	e.hist(ls.TransferHist[1])
	mods = sortedKeys(ls.InterfaceTransferHist, func(h *[numDirections]*stats.Histogram) bool { return h != nil })
	e.uvarint(uint64(len(mods)))
	for _, m := range mods {
		e.b = append(e.b, byte(m))
		h := ls.InterfaceTransferHist[m]
		e.hist(h[0])
		e.hist(h[1])
	}
	for _, hs := range [...]*[numDirections]*stats.Histogram{&ls.RequestHist, &ls.LargeJobRequestHist} {
		e.hist(hs[0])
		e.hist(hs[1])
	}
	for _, c := range ls.ClassFiles {
		e.varint(c)
	}
	for _, c := range ls.StdioClassFiles {
		e.varint(c)
	}
	mods = sortedKeys(ls.Perf, func(p *[numDirections][units.NumTransferBins][]float64) bool { return p != nil })
	e.uvarint(uint64(len(mods)))
	var sorted []uint64
	for _, m := range mods {
		e.b = append(e.b, byte(m))
		for _, cell := range ls.Perf[m] {
			for _, samples := range cell {
				sorted = sorted[:0]
				for _, v := range samples {
					sorted = append(sorted, math.Float64bits(v))
				}
				slices.Sort(sorted)
				e.uvarint(uint64(len(sorted)))
				for _, v := range sorted {
					e.b = binary.LittleEndian.AppendUint64(e.b, v)
				}
			}
		}
	}
	e.float(ls.IOTime[0])
	e.float(ls.IOTime[1])
	e.hist(ls.StdioXRequestHist[0])
	e.hist(ls.StdioXRequestHist[1])
	e.float(ls.StdioXRewriteBytes)
	e.float(ls.StdioXUniqueBytes)
}

// stateDecoder reads the layout from b. The first error sticks: every read
// after it returns a zero value, so a caller checks err once at the end.
type stateDecoder struct {
	b   []byte
	err error
}

func (d *stateDecoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("analysis: malformed state: %s", what)
	}
	d.b = nil
}

func (d *stateDecoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("truncated or overlong uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *stateDecoder) varint() int64 {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("truncated or overlong varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *stateDecoder) float() float64 {
	return math.Float64frombits(bits.ReverseBytes64(d.uvarint()))
}

// count reads an element count and checks that the bytes left could hold
// that many elements of at least size bytes each, so a corrupt count never
// sizes an allocation beyond the input.
func (d *stateDecoder) count(size int) int {
	n := d.uvarint()
	if n > uint64(len(d.b)/size) {
		d.fail(fmt.Sprintf("count %d exceeds the %d bytes left", n, len(d.b)))
		return 0
	}
	return int(n)
}

func (d *stateDecoder) str() string {
	n := d.count(1)
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *stateDecoder) module() darshan.ModuleID {
	if len(d.b) == 0 {
		d.fail("truncated module")
		return 0
	}
	m := darshan.ModuleID(d.b[0])
	d.b = d.b[1:]
	return m
}

// modules reads a module count; next then yields the modules in turn,
// each checked to ascend strictly.
func (d *stateDecoder) modules() (n int, next func() darshan.ModuleID) {
	n = d.count(1)
	i := 0
	var prev darshan.ModuleID
	return n, func() darshan.ModuleID {
		m := d.module()
		if i > 0 && m <= prev {
			d.fail("modules out of order")
		}
		i, prev = i+1, m
		return m
	}
}

// ids reads an id set, checking that the ids ascend strictly.
func (d *stateDecoder) ids() []uint64 {
	ids := make([]uint64, d.count(1))
	var prev uint64
	for i := range ids {
		delta := d.uvarint()
		if i > 0 && delta == 0 {
			d.fail("id set repeats an id")
		}
		if delta > math.MaxUint64-prev {
			d.fail("id set overflows")
		}
		prev += delta
		ids[i] = prev
	}
	return ids
}

func (d *stateDecoder) set() map[uint64]bool {
	ids := d.ids()
	s := make(map[uint64]bool, len(ids))
	for _, id := range ids {
		s[id] = true
	}
	return s
}

func (d *stateDecoder) hist() *stats.Histogram {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	h := stats.NewHistogram(n)
	for i := range h.Counts {
		h.Counts[i] = d.uvarint()
	}
	return h
}

func (d *stateDecoder) layer() *LayerStats {
	ls := &LayerStats{Files: d.varint()}
	ls.Bytes[0], ls.Bytes[1] = d.float(), d.float()
	ls.HugeFiles[0], ls.HugeFiles[1] = d.varint(), d.varint()
	n, next := d.modules()
	ls.InterfaceFiles = make(map[darshan.ModuleID]int64, n)
	for range n {
		m := next()
		ls.InterfaceFiles[m] = d.varint()
	}
	ls.TransferHist[0], ls.TransferHist[1] = d.hist(), d.hist()
	n, next = d.modules()
	ls.InterfaceTransferHist = make(map[darshan.ModuleID]*[numDirections]*stats.Histogram, n)
	for range n {
		m := next()
		ls.InterfaceTransferHist[m] = &[numDirections]*stats.Histogram{d.hist(), d.hist()}
	}
	ls.RequestHist[0], ls.RequestHist[1] = d.hist(), d.hist()
	ls.LargeJobRequestHist[0], ls.LargeJobRequestHist[1] = d.hist(), d.hist()
	for i := range ls.ClassFiles {
		ls.ClassFiles[i] = d.varint()
	}
	for i := range ls.StdioClassFiles {
		ls.StdioClassFiles[i] = d.varint()
	}
	n, next = d.modules()
	ls.Perf = make(map[darshan.ModuleID]*[numDirections][units.NumTransferBins][]float64, n)
	for range n {
		m := next()
		p := &[numDirections][units.NumTransferBins][]float64{}
		for dir := range p {
			for b := range p[dir] {
				k := d.count(8)
				if k == 0 {
					continue
				}
				samples := make([]float64, k)
				var prev uint64
				for i := range samples {
					v := binary.LittleEndian.Uint64(d.b)
					d.b = d.b[8:]
					if i > 0 && v < prev {
						d.fail("bandwidth samples out of order")
						return ls
					}
					samples[i], prev = math.Float64frombits(v), v
				}
				p[dir][b] = samples
			}
		}
		ls.Perf[m] = p
	}
	ls.IOTime[0], ls.IOTime[1] = d.float(), d.float()
	ls.StdioXRequestHist[0], ls.StdioXRequestHist[1] = d.hist(), d.hist()
	ls.StdioXRewriteBytes, ls.StdioXUniqueBytes = d.float(), d.float()
	return ls
}
