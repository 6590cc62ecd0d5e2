package main

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"iolayers/internal/analysis"
	"iolayers/internal/obsv"
	"iolayers/internal/predict"
	"iolayers/internal/report"
	"iolayers/internal/serve"
	"iolayers/internal/stats"
)

// reference renders what question u must answer for dataset d at the
// generation rep was folded to, through the same public calls a
// single-node ioserved makes.
func reference(u urlSpec, d *dataset, gen uint64, rep *analysis.Report) ([]byte, error) {
	if u.kind == kPredict {
		p := predict.FromReport(rep).WithReplay(d.sys, rep)
		return serve.MarshalDoc(predict.NewDocument(d.name, gen, p))
	}
	s, err := report.RenderString(rep, report.Options{Format: u.format, Section: u.section})
	return []byte(s), err
}

// verify checks every observed (question, generations) → body hash
// against the reference and returns how many answers were wrong. The
// reference for generation g of a dataset is one aggregator that had the
// fixture logs and then the first g-1 acknowledged ingests added to it
// one by one — no worker pool, no clone, no merge, no lake — so it shares
// nothing with the replicas but the fold itself. verify advances the
// datasets' reference aggregators, so it runs once per set-up.
func (e *svcEnv) verify(obs map[obsKey]obsVal) (wrong int) {
	type seen struct {
		url  int
		hash uint64
		n    int
	}
	perGen := make([]map[uint32][]seen, len(e.datasets))
	for i := range perGen {
		perGen[i] = map[uint32][]seen{}
	}
	var multi []obsKey
	for k, v := range obs {
		u := e.urls[k.url]
		if u.kind == kCompare || u.kind == kDatasets {
			multi = append(multi, k)
			continue
		}
		perGen[u.ds][k.gens[0]] = append(perGen[u.ds][k.gens[0]], seen{k.url, v.hash, v.n})
	}

	rows := make([][]serve.DatasetRow, len(e.datasets))
	for di, d := range e.datasets {
		last := uint64(len(d.ingested) + 1)
		rows[di] = make([]serve.DatasetRow, last+1)
		sources := []string{d.dir}
		for g := uint64(1); g <= last; g++ {
			if g > 1 {
				at := d.ingested[g-2]
				d.ref.AddLog(d.logs[at])
				sources = append(sources, d.files[at])
			}
			rep := d.ref.Report()
			rows[di][g] = serve.RowOf(&serve.Snapshot{Name: d.name, System: d.sys.Name, Gen: g,
				Report: rep, Sources: append([]string(nil), sources...)})
			for _, s := range perGen[di][uint32(g)] {
				ref, err := reference(e.urls[s.url], d, g, rep)
				if err != nil || hashBody(ref) != s.hash {
					wrong += s.n
				}
			}
			delete(perGen[di], uint32(g))
			if g == 1 || g == last {
				if d.refFull == nil {
					d.refFull = map[uint64][]byte{}
				}
				d.refFull[g], _ = renderJSON(rep)
			}
		}
		// anything left claims a generation no acknowledged ingest made
		for _, left := range perGen[di] {
			for _, s := range left {
				wrong += s.n
			}
		}
	}

	// /v1/datasets lists by name; the generations scanned from a body are
	// in that order.
	byName := make([]int, len(e.datasets))
	for i := range byName {
		byName[i] = i
	}
	sort.Slice(byName, func(a, b int) bool { return e.datasets[byName[a]].name < e.datasets[byName[b]].name })
	row := func(ds int, gen uint32) (serve.DatasetRow, bool) {
		if gen < 1 || int(gen) >= len(rows[ds]) {
			return serve.DatasetRow{}, false
		}
		return rows[ds][gen], true
	}
	for _, k := range multi {
		u, v := e.urls[k.url], obs[k]
		var ref []byte
		var err error
		ok := true
		if u.kind == kCompare {
			a, okA := row(u.ds, k.gens[0])
			b, okB := row(u.ds2, k.gens[1])
			ok = okA && okB
			ref, err = serve.CompareDocument(a, b)
		} else {
			doc := serve.DatasetsDoc{SchemaVersion: report.SchemaVersion, Datasets: []serve.DatasetRow{}}
			for i, ds := range byName {
				r, okR := row(ds, k.gens[i])
				ok = ok && okR
				doc.Datasets = append(doc.Datasets, r)
			}
			ref, err = serve.MarshalDoc(doc)
		}
		if !ok || err != nil || hashBody(ref) != v.hash {
			wrong += v.n
		}
	}
	return wrong
}

// recoverLakes restarts every replica's store from its lake directory —
// what ioserved -lake does on boot — and requires each dataset back at the
// last generation that replica acknowledged, rendering the reference's
// bytes. It does so five times over (one recovery is ten milliseconds, too
// short to repeat within its bound) and returns the median round's mean
// recovery time per replica, and how many datasets came back wrong. Run
// after verify, which leaves the reference bytes behind.
func (e *svcEnv) recoverLakes() (time.Duration, int, error) {
	var rounds []float64
	bad := 0
	for round := 0; round < 5; round++ {
		var total time.Duration
		for _, rp := range e.replicas {
			start := time.Now()
			lake, err := serve.OpenLake(serve.LakeConfig{Dir: rp.lakeDir, Metrics: obsv.New()})
			if err != nil {
				return 0, 0, fmt.Errorf("reopening lake: %w", err)
			}
			store, err := serve.NewStoreWithLake(lake)
			total += time.Since(start)
			if err != nil {
				lake.Close()
				return 0, 0, fmt.Errorf("recovering lake: %w", err)
			}
			for di, d := range e.datasets {
				snap, ok := store.Get(d.name)
				if !ok || snap.Gen != rp.ackGen[di] {
					bad++
					continue
				}
				body, err := renderJSON(snap.Report)
				if ref, known := d.refFull[snap.Gen]; err != nil || !known || !bytes.Equal(body, ref) {
					bad++
				}
			}
			lake.Close()
		}
		rounds = append(rounds, float64(total)/float64(len(e.replicas)))
	}
	return time.Duration(stats.Quantile(rounds, 0.5)), bad, nil
}
