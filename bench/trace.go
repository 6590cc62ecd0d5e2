package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// A span is one timed interval at a layer boundary, recorded from bench/
// code around a call into the program. Parent is the index of the span
// that caused it (-1 for a root) and Op the index of the operation in the
// traced replay; the replay runs one caller, so spans of one op never
// overlap another op's and need no in-program identifier.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	// host ties a cluster.upstream span to the serve.handler span it
	// caused when a scatter has several upstream calls in flight at once.
	host string
}

func (s span) dur() int64 { return s.EndNS - s.StartNS }

// spanLevels fixes the tree shape: a span's parent is the shortest span of
// the same op, exactly one level up, that was open when it started.
var spanLevels = map[string]int{
	"request": 0, "cluster.handler": 1, "cluster.upstream": 2, "serve.handler": 3,
	"answer": 0, "logfmt.frame": 1, "logfmt.decode": 1, "analysis.addlog": 1,
	"colfmt.frame": 1, "colfmt.decode": 1, "analysis.foldbatch": 1,
	"analysis.report": 1, "report.render": 1,
}

// baseName strips the outcome suffix ("serve.handler/miss" → "serve.handler").
func baseName(name string) string {
	if i := strings.IndexByte(name, '/'); i >= 0 {
		return name[:i]
	}
	return name
}

// tracer collects spans in memory. It is off unless enabled: the
// middleware stays installed for the whole traced invocation and costs one
// atomic load per call while the untraced comparison pass runs.
type tracer struct {
	on    atomic.Bool
	op    atomic.Int64
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) add(name string, start, end time.Time, host string) {
	if !t.enabled() {
		return
	}
	s := span{
		Name: name, StartNS: int64(start.Sub(t.epoch)), EndNS: int64(end.Sub(t.epoch)),
		Parent: -1, Op: int(t.op.Load()), host: host,
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// link assigns every span its parent and returns the spans sorted by
// (op, start). Call once, after the traced replay.
func (t *tracer) link() []span {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Op != spans[j].Op {
			return spans[i].Op < spans[j].Op
		}
		if spans[i].StartNS != spans[j].StartNS {
			return spans[i].StartNS < spans[j].StartNS
		}
		return spanLevels[baseName(spans[i].Name)] < spanLevels[baseName(spans[j].Name)]
	})
	for lo := 0; lo < len(spans); {
		hi := lo
		for hi < len(spans) && spans[hi].Op == spans[lo].Op {
			hi++
		}
		var byLevel [4][]int
		for i := lo; i < hi; i++ {
			level := spanLevels[baseName(spans[i].Name)]
			byLevel[level] = append(byLevel[level], i)
		}
		for i := lo; i < hi; i++ {
			level := spanLevels[baseName(spans[i].Name)]
			if level == 0 {
				continue
			}
			best := -1
			for _, j := range byLevel[level-1] {
				p := spans[j]
				if p.StartNS > spans[i].StartNS || p.EndNS < spans[i].StartNS {
					continue
				}
				// an orphan's children are orphans: a handler that returned
				// after the caller had moved on is stamped with the next op,
				// where no request encloses it
				if level > 1 && p.Parent < 0 {
					continue
				}
				if p.host != "" && spans[i].host != "" && p.host != spans[i].host {
					continue
				}
				if best < 0 || p.dur() < spans[best].dur() {
					best = j
				}
			}
			spans[i].Parent = best
			// a handler may return a moment after its client has read the
			// whole reply; the overhang belongs to nobody's answer
			if best >= 0 && spans[i].EndNS > spans[best].EndNS {
				spans[i].EndNS = spans[best].EndNS
			}
		}
		lo = hi
	}
	return spans
}

// selfTimes charges every instant of an op to the innermost span active
// at that instant — a span's self time is its duration minus what its
// children cover — and splits an instant evenly when a scatter has several
// innermost spans in flight at once, so the self times of an op always add
// up to its root's duration. Spans without a parent that are not roots
// (nothing enclosed them) are charged nothing.
func selfTimes(spans []span) []float64 {
	self := make([]float64, len(spans))
	type event struct {
		at    int64
		end   bool
		level int
		idx   int
	}
	for lo := 0; lo < len(spans); {
		hi := lo
		for hi < len(spans) && spans[hi].Op == spans[lo].Op {
			hi++
		}
		var events []event
		for i := lo; i < hi; i++ {
			level := spanLevels[baseName(spans[i].Name)]
			if level > 0 && spans[i].Parent < 0 {
				continue
			}
			events = append(events, event{spans[i].StartNS, false, level, i}, event{spans[i].EndNS, true, level, i})
		}
		// at one instant: starts before ends, parents start before and end
		// after their children
		sort.Slice(events, func(a, b int) bool {
			ea, eb := events[a], events[b]
			if ea.at != eb.at {
				return ea.at < eb.at
			}
			if ea.end != eb.end {
				return !ea.end
			}
			if ea.end {
				return ea.level > eb.level
			}
			return ea.level < eb.level
		})
		var active []int
		busy := map[int]int{} // active children per active span
		last := int64(0)
		for _, ev := range events {
			if d := ev.at - last; d > 0 && len(active) > 0 {
				inner := 0
				for _, i := range active {
					if busy[i] == 0 {
						inner++
					}
				}
				for _, i := range active {
					if busy[i] == 0 {
						self[i] += float64(d) / float64(inner)
					}
				}
			}
			last = ev.at
			if !ev.end {
				active = append(active, ev.idx)
				if p := spans[ev.idx].Parent; p >= 0 {
					busy[p]++
				}
				continue
			}
			for k, i := range active {
				if i == ev.idx {
					active = append(active[:k], active[k+1:]...)
					break
				}
			}
			if p := spans[ev.idx].Parent; p >= 0 {
				busy[p]--
			}
		}
		lo = hi
	}
	return self
}

// budgetRow is one line of the ledger: a layer's self time per answer and
// its share of the end-to-end answer time.
type budgetRow struct {
	Name   string
	Spans  int
	SelfNS float64
	Share  float64
}

// budget folds spans into the per-layer ledger. Shares are of the summed
// root durations, so they add up to 1 when every child lies inside its
// parent; orphans (spans with no enclosing parent) are left out and show
// up as a sum below 1.
func budget(spans []span) (rows []budgetRow, roots int, rootNS int64) {
	self := selfTimes(spans)
	byName := map[string]*budgetRow{}
	for i, s := range spans {
		level := spanLevels[baseName(s.Name)]
		if level == 0 {
			roots++
			rootNS += s.dur()
		} else if s.Parent < 0 {
			continue
		}
		r := byName[s.Name]
		if r == nil {
			r = &budgetRow{Name: s.Name}
			byName[s.Name] = r
		}
		r.Spans++
		r.SelfNS += self[i]
	}
	for _, r := range byName {
		if rootNS > 0 {
			r.Share = r.SelfNS / float64(rootNS)
		}
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].SelfNS > rows[j].SelfNS })
	return rows, roots, rootNS
}

// shareOf sums the budget share of every row whose name has one of the
// prefixes.
func shareOf(rows []budgetRow, prefixes ...string) float64 {
	var sum float64
	for _, r := range rows {
		for _, p := range prefixes {
			if strings.HasPrefix(r.Name, p) {
				sum += r.Share
				break
			}
		}
	}
	return sum
}

func printBudget(w io.Writer, workload string, rows []budgetRow, roots int, rootNS int64) {
	if roots == 0 {
		return
	}
	fmt.Fprintf(w, "budget %s: one answer = %.1f us over %d traced answers\n",
		workload, float64(rootNS)/float64(roots)/1e3, roots)
	var sum float64
	for _, r := range rows {
		fmt.Fprintf(w, "  %-24s %10.1f us/answer  %5.1f%%  (%d spans)\n",
			r.Name, r.SelfNS/float64(roots)/1e3, r.Share*100, r.Spans)
		sum += r.Share
	}
	fmt.Fprintf(w, "  %-24s %10s             %5.1f%%\n", "sum", "", sum*100)
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
