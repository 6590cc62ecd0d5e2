package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"iolayers/internal/iosim"
	"iolayers/internal/iosim/systems"
)

// inputs are what the seed generates: the batch campaign's archive, or the
// service datasets' fixture corpora. They are made once per process and
// outside every timing — setup_s times the program setting itself up on
// them (conversion, boot ingest, warm-up), which is where a change can move
// work to; synthesizing them is the benchmark's own cost, and on the
// sizing sandbox most of it is creating 4,000 files, whose price swings
// 3x with the state of the host's disk.
type inputs struct {
	dir string
	// batch: a sample of the seeded Summit campaign
	sys      *iosim.System
	dgar     string
	logs     int
	dgarSize int64
	dgarSum  uint64
	// service: 4 Summit and 4 Cori fixture datasets
	datasets []*dataset
}

func (in *inputs) close() { os.RemoveAll(in.dir) }

// runDir is where a set-up keeps what it makes (lakes, conversions). One
// name for every set-up of the process: the lake stores paths, so a name
// of varying length would make the lake's size vary with it.
func (in *inputs) runDir() string { return filepath.Join(in.dir, "run") }

func generateInputs(ctx context.Context, o options) (*inputs, error) {
	dir, err := scratchDir(o.workRoot)
	if err != nil {
		return nil, err
	}
	in := &inputs{dir: dir}
	if isBatch(o.workload) {
		in.sys, in.dgar = systems.NewSummit(), filepath.Join(dir, "campaign.dgar")
		if in.logs, err = writeCampaign(ctx, o, in.sys, in.dgar); err == nil {
			in.dgarSum, in.dgarSize, err = fileSum(in.dgar)
		}
	} else {
		err = in.writeFixtures(o)
	}
	if err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

// writeFixtures synthesizes the eight datasets, `callers` at a time.
func (in *inputs) writeFixtures(o options) error {
	for i := 0; i < 8; i++ {
		d := &dataset{name: fmt.Sprintf("s%d", i), system: "summit"}
		if i >= 4 {
			d.name, d.system = fmt.Sprintf("c%d", i-4), "cori"
		}
		d.sys = systems.ByName(d.system)
		d.dir = filepath.Join(in.dir, "f", d.name)
		in.datasets = append(in.datasets, d)
	}
	errs := make([]error, len(in.datasets))
	sem := make(chan struct{}, o.callers)
	var wg sync.WaitGroup
	for i, d := range in.datasets {
		wg.Add(1)
		go func(i int, d *dataset) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[i] = d.write(o.size().fixtureLogs, fixtureSeed(o.seed, i))
		}(i, d)
	}
	wg.Wait()
	return errors.Join(errs...)
}
