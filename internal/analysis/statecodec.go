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
// Most of a state's fixed-length arrays are mostly zero (a log touches one
// month, a few histogram bins, one or two transfer-size cells), so they are
// written sparse: a mask, then only the non-zero values.
//
//	version               byte (stateVersion)
//	System                string
//	LargeJobProcs         varint
//	Logs                  varint
//	NodeHours             float
//	MonthlyLogs[12]       sparse varints
//	MonthlyBytes[12]      sparse floats
//	domain dictionary     uvarint n, then n strings, strictly ascending
//	Jobs                  id set, then per job the uvarint
//	                      ref<<5 | Uncovered<<4 | Covered<<3 | UsedStdio<<2 | Layers[1]<<1 | Layers[0],
//	                      ref 0 = no domain, ref k = dictionary[k-1];
//	                      Covered/Uncovered: the job id is in DomainCovered/DomainUncovered
//	coverage residue      id set of the ids in DomainCovered or DomainUncovered that are
//	                      not jobs (a fold leaves none), then per id uvarint(Uncovered<<1 | Covered), never 0
//	Tuning                id set, then per user uvarint(Seen[1]<<1 | Seen[0]) and sparse varints over
//	                      MaxStripe[0..1], CollOps[0..1], IndepOps[0..1], JobsInHalf[0..1]
//	UserBytes             id set, then a float per user
//	UserFiles             id set, then a varint per user
//	Layers[0], Layers[1]  layer (a nil layer is written as an empty one)
//	Domains               index set over the dictionary, then per domain the floats
//	                      InSystemBytes[0..1], StdioBytes[0..1]
//
//	id set     uvarint n, then n uvarints: the first id, then each id's
//	           distance from the one before (never 0: ids ascend strictly)
//	sparse     uvarint mask, bit i set when value i is non-zero, no bit at or
//	           past the array's length; then each non-zero value in order.
//	           A float is non-zero when its bits are (so -0 is written).
//	           An array is at most maxSparse values wide
//	layer      Files varint, Bytes[2] float, HugeFiles[2] varint,
//	           InterfaceFiles: uvarint n, n × (module byte, varint),
//	           TransferHist[2] hist,
//	           InterfaceTransferHist: uvarint n, n × (module byte, hist, hist),
//	           RequestHist[2] hist, LargeJobRequestHist[2] hist,
//	           ClassFiles[3] sparse varints, StdioClassFiles[3] sparse varints,
//	           Perf: uvarint n, n × (module byte, uvarint mask over the cells
//	           direction*NumTransferBins + transfer bin that hold samples,
//	           then per marked cell: uvarint count, count raw floats in
//	           ascending bit order),
//	           IOTime[2] float, StdioXRequestHist[2] hist,
//	           StdioXRewriteBytes float, StdioXUniqueBytes float
//	hist       uvarint bins (0: a nil histogram; at most maxSparse), then
//	           the bins as sparse uvarints
//
// Modules ascend strictly. Map entries whose value is a nil pointer carry
// nothing (a restore skips them) and are not written.
//
// The decoder accepts only what the encoder writes: keys out of order or
// repeated, unknown flag bits, a domain reference past the dictionary, a
// mask bit past its array or marking a zero, a residue id that is a job,
// samples out of order and trailing bytes are errors, and every count is
// checked against the bytes left (or, for a sparse array's width, against
// maxSparse) before it sizes an allocation. So a state decoded from any
// input re-encodes to bytes that decode to the same state.

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
// fails on a field the layout does not carry. Version 1 wrote every array
// dense and the coverage sets as id sets of their own; it is refused.
const stateVersion = 2

// ErrStateVersion is what UnmarshalBinary's error wraps when the bytes are
// a state in another version of the layout: whole, but not readable by this
// build, so the way out is to rebuild the state from its sources.
var ErrStateVersion = errors.New("state layout version")

// maxSparse is the widest array the layout writes sparse: its mask is one
// uvarint of at most 64 bits.
const maxSparse = 64

// perfCells is how many sample cells a module's Perf entry holds.
const perfCells = int(numDirections) * units.NumTransferBins

// The flag bits of a job's word, below its domain reference.
const (
	jobLayer0 = 1 << iota
	jobLayer1
	jobStdio
	jobCovered
	jobUncovered
	jobFlagBits = iota
)

// MarshalBinary writes the state in the layout above. It does not modify
// the state.
func (st *AggregatorState) MarshalBinary() ([]byte, error) {
	return st.AppendBinary(make([]byte, 0, 1024))
}

// AppendBinary is MarshalBinary appending to b, for a record that carries
// the state after fields of its own. It fails on a histogram wider than
// the layout's sparse arrays.
func (st *AggregatorState) AppendBinary(b []byte) ([]byte, error) {
	e := stateEncoder{b: b}
	e.b = append(e.b, stateVersion)
	e.str(st.System)
	e.varint(int64(st.LargeJobProcs))
	e.varint(st.Logs)
	e.float(st.NodeHours)
	sparse(&e, st.MonthlyLogs[:], zigzag)
	sparse(&e, st.MonthlyBytes[:], floatWord)

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

	for _, id := range e.ids(sortedKeys(st.Jobs, nil)) {
		jv := st.Jobs[id]
		ref := 0
		if jv.Domain != "" {
			i, _ := slices.BinarySearch(dict, jv.Domain)
			ref = i + 1
		}
		_, covered := st.DomainCovered[id]
		_, uncovered := st.DomainUncovered[id]
		f := flag(jv.Layers[0], jobLayer0) | flag(jv.Layers[1], jobLayer1) | flag(jv.UsedStdio, jobStdio) |
			flag(covered, jobCovered) | flag(uncovered, jobUncovered)
		e.uvarint(uint64(ref)<<jobFlagBits | f)
	}
	var residue []uint64
	for _, set := range [...]map[uint64]bool{st.DomainCovered, st.DomainUncovered} {
		for id := range set {
			if _, job := st.Jobs[id]; !job {
				residue = append(residue, id)
			}
		}
	}
	slices.Sort(residue)
	for _, id := range e.ids(slices.Compact(residue)) {
		_, covered := st.DomainCovered[id]
		_, uncovered := st.DomainUncovered[id]
		e.uvarint(flag(covered, 1) | flag(uncovered, 2))
	}

	for _, id := range e.ids(sortedKeys(st.Tuning, nil)) {
		ut := st.Tuning[id]
		e.uvarint(flag(ut.Seen[0], 1) | flag(ut.Seen[1], 2))
		pairs := [...]int64{ut.MaxStripe[0], ut.MaxStripe[1], ut.CollOps[0], ut.CollOps[1],
			ut.IndepOps[0], ut.IndepOps[1], ut.JobsInHalf[0], ut.JobsInHalf[1]}
		sparse(&e, pairs[:], zigzag)
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
	if e.err != nil {
		return nil, e.err
	}
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
		return fmt.Errorf("analysis: %w %d, but this build reads only version %d", ErrStateVersion, data[0], stateVersion)
	}
	d := stateDecoder{b: data[1:]}
	out := AggregatorState{System: d.str()}
	out.LargeJobProcs = int(d.varint())
	out.Logs = d.varint()
	out.NodeHours = d.float()
	unsparse(&d, out.MonthlyLogs[:], unzigzag)
	unsparse(&d, out.MonthlyBytes[:], wordFloat)

	dict := make([]string, d.count(1))
	for i := range dict {
		dict[i] = d.str()
		if i > 0 && dict[i] <= dict[i-1] {
			d.fail("domain dictionary out of order")
		}
	}

	ids := d.ids()
	out.Jobs = make(map[uint64]JobViewState, len(ids))
	out.DomainCovered = map[uint64]bool{}
	out.DomainUncovered = map[uint64]bool{}
	for _, id := range ids {
		v := d.uvarint()
		ref := v >> jobFlagBits
		if ref > uint64(len(dict)) {
			d.fail("job word names a domain past the dictionary")
			break
		}
		jv := JobViewState{Layers: [2]bool{v&jobLayer0 != 0, v&jobLayer1 != 0}, UsedStdio: v&jobStdio != 0}
		if ref > 0 {
			jv.Domain = dict[ref-1]
		}
		out.Jobs[id] = jv
		if v&jobCovered != 0 {
			out.DomainCovered[id] = true
		}
		if v&jobUncovered != 0 {
			out.DomainUncovered[id] = true
		}
	}
	for _, id := range d.ids() {
		if _, job := out.Jobs[id]; job {
			d.fail("coverage residue names a job")
			break
		}
		f := d.uvarint()
		if f == 0 || f > 3 {
			d.fail("unknown coverage residue flags")
			break
		}
		if f&1 != 0 {
			out.DomainCovered[id] = true
		}
		if f&2 != 0 {
			out.DomainUncovered[id] = true
		}
	}

	ids = d.ids()
	out.Tuning = make(map[uint64]UserTuningState, len(ids))
	for _, id := range ids {
		seen := d.uvarint()
		if seen > 3 {
			d.fail("unknown tuning flags")
		}
		var pairs [8]int64
		unsparse(&d, pairs[:], unzigzag)
		out.Tuning[id] = UserTuningState{Seen: [2]bool{seen&1 != 0, seen&2 != 0},
			MaxStripe: [2]int64{pairs[0], pairs[1]}, CollOps: [2]int64{pairs[2], pairs[3]},
			IndepOps: [2]int64{pairs[4], pairs[5]}, JobsInHalf: [2]int64{pairs[6], pairs[7]}}
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
	if d.err == nil && len(d.b) > 0 {
		d.fail(fmt.Sprintf("%d trailing bytes", len(d.b)))
	}
	if d.err != nil {
		return d.err
	}
	*st = out
	return nil
}

// flag is bit when b holds, else 0.
func flag(b bool, bit uint64) uint64 {
	if b {
		return bit
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

// A value's word is the uvarint the layout writes for it; it is zero
// exactly when the value is (for a float, when its bits are).
func zigzag(v int64) uint64      { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(w uint64) int64    { return int64(w>>1) ^ -int64(w&1) }
func floatWord(f float64) uint64 { return bits.ReverseBytes64(math.Float64bits(f)) }
func wordFloat(w uint64) float64 { return math.Float64frombits(bits.ReverseBytes64(w)) }
func sameWord(w uint64) uint64   { return w }

type stateEncoder struct {
	b   []byte
	err error
}

func (e *stateEncoder) uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *stateEncoder) varint(v int64)   { e.uvarint(zigzag(v)) }
func (e *stateEncoder) float(f float64)  { e.uvarint(floatWord(f)) }
func (e *stateEncoder) str(s string)     { e.uvarint(uint64(len(s))); e.b = append(e.b, s...) }

// sparse writes vs, at most maxSparse values, as a mask of its non-zero
// values, then their words.
func sparse[T any](e *stateEncoder, vs []T, word func(T) uint64) {
	var mask uint64
	for i, v := range vs {
		if word(v) != 0 {
			mask |= 1 << i
		}
	}
	e.uvarint(mask)
	for m := mask; m != 0; m &= m - 1 {
		e.uvarint(word(vs[bits.TrailingZeros64(m)]))
	}
}

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
	if len(h.Counts) > maxSparse {
		if e.err == nil {
			e.err = fmt.Errorf("analysis: a histogram of %d bins is wider than the state layout's %d", len(h.Counts), maxSparse)
		}
		return
	}
	e.uvarint(uint64(len(h.Counts)))
	sparse(e, h.Counts, sameWord)
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
	sparse(e, ls.ClassFiles[:], zigzag)
	sparse(e, ls.StdioClassFiles[:], zigzag)
	mods = sortedKeys(ls.Perf, func(p *[numDirections][units.NumTransferBins][]float64) bool { return p != nil })
	e.uvarint(uint64(len(mods)))
	var sorted []uint64
	for _, m := range mods {
		e.b = append(e.b, byte(m))
		cells := ls.Perf[m]
		var mask uint64
		for dir := range cells {
			for b, samples := range cells[dir] {
				if len(samples) > 0 {
					mask |= 1 << (dir*units.NumTransferBins + b)
				}
			}
		}
		e.uvarint(mask)
		for dir := range cells {
			for _, samples := range cells[dir] {
				if len(samples) == 0 {
					continue
				}
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

func (d *stateDecoder) float() float64 { return wordFloat(d.uvarint()) }

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

// mask reads a sparse array's mask for an array n wide.
func (d *stateDecoder) mask(n int) uint64 {
	m := d.uvarint()
	if n < maxSparse && m>>n != 0 {
		d.fail(fmt.Sprintf("mask bit past an array of %d", n))
		return 0
	}
	return m
}

// unsparse reads a sparse array into vs, which is as wide as the array
// written.
func unsparse[T any](d *stateDecoder, vs []T, value func(uint64) T) {
	mask := d.mask(len(vs))
	for i := range vs {
		if mask&(1<<i) == 0 {
			continue
		}
		w := d.uvarint()
		if w == 0 {
			d.fail("a mask bit marks a zero")
			return
		}
		vs[i] = value(w)
	}
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

// hist reads a histogram. Its width is bounded by maxSparse, not by the
// bytes left: an all-zero histogram of any width is two bytes.
func (d *stateDecoder) hist() *stats.Histogram {
	n := d.uvarint()
	if n > maxSparse {
		d.fail(fmt.Sprintf("a histogram of %d bins is wider than %d", n, maxSparse))
		return nil
	}
	if n == 0 {
		return nil
	}
	h := stats.NewHistogram(int(n))
	unsparse(d, h.Counts, sameWord)
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
	unsparse(d, ls.ClassFiles[:], unzigzag)
	unsparse(d, ls.StdioClassFiles[:], unzigzag)
	n, next = d.modules()
	ls.Perf = make(map[darshan.ModuleID]*[numDirections][units.NumTransferBins][]float64, n)
	for range n {
		m := next()
		p := &[numDirections][units.NumTransferBins][]float64{}
		mask := d.mask(perfCells)
		for dir := range p {
			for b := range p[dir] {
				if mask&(1<<(dir*units.NumTransferBins+b)) == 0 {
					continue
				}
				k := d.count(8)
				if k == 0 {
					d.fail("a mask bit marks a zero")
					return ls
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
