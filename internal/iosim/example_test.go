package iosim_test

import (
	"fmt"
	"math/rand/v2"

	"iolayers/internal/darshan"
	"iolayers/internal/iosim"
	"iolayers/internal/iosim/systems"
	"iolayers/internal/units"
)

// gbPerSec renders total bytes moved in secs as decimal GB/s.
func gbPerSec(total units.ByteSize, secs float64) string {
	return fmt.Sprintf("%.1f GB", float64(total)/1e9/secs)
}

// Example_checkpoint runs the traditional bulk-synchronous HPC I/O pattern
// the paper's introduction starts from — a numerical simulation
// periodically dumping its state — three ways on the simulated Summit
// subsystem:
//
//  1. every rank writes its own chunk to the parallel file system,
//
//  2. all ranks write one shared file collectively through MPI-IO, and
//
//  3. ranks write to the node-local NVMe layer (SCNL) and drain to the PFS
//     in the background (the Spectral/UnifyFS pattern, Recommendation 3).
func Example_checkpoint() {
	const (
		// A capability-class run: at 2048 of Summit's 4608 nodes the
		// node-local NVMe aggregate (≈4.3 TB/s write) exceeds what Alpine
		// can deliver under production load — the regime burst buffers
		// exist for.
		nodes        = 2048
		procsPerNode = 42
		checkpoints  = 5
		perRankState = 128 * units.MiB
	)
	newClient := func(sys *iosim.System, seed uint64) *iosim.Client {
		rt := darshan.NewRuntime(darshan.JobHeader{
			JobID: seed, UserID: 1, NProcs: nodes * procsPerNode,
			StartTime: 0, EndTime: 86_400,
		})
		return iosim.NewClient(sys, rt, rand.New(rand.NewPCG(seed, 0)))
	}

	summit := systems.NewSummit()
	nprocs := nodes * procsPerNode
	total := units.ByteSize(nprocs) * perRankState
	fmt.Printf("checkpointing %d ranks × %s = %s per checkpoint, %d checkpoints\n\n",
		nprocs, perRankState, total, checkpoints)

	// Strategy 1: file-per-process on the PFS. All ranks write their own
	// files concurrently — the data moves at the job's aggregate delivered
	// bandwidth, but every checkpoint also pays an open storm: nprocs file
	// creations hammering the shared metadata service.
	c1 := newClient(summit, 1)
	const mdsConcurrency = 32 // parallel metadata service capacity
	var wall1 float64
	for ck := 0; ck < checkpoints; ck++ {
		openStorm := float64(nprocs) * summit.PFS.MetaLatency() / mdsConcurrency
		path := fmt.Sprintf("/gpfs/alpine/sim/ckpt%02d/rankfiles", ck)
		wall1 += openStorm
		wall1 += c1.SharedTransfer(darshan.ModulePOSIX, path, iosim.Write, total, false)
	}
	fmt.Printf("1. file-per-process on Alpine:        %8.2f s  (%s/s)\n",
		wall1, gbPerSec(total*checkpoints, wall1))

	// Strategy 2: single shared file through collective MPI-IO. Collective
	// buffering merges everything into large well-formed requests.
	c2 := newClient(summit, 2)
	var wall2 float64
	for ck := 0; ck < checkpoints; ck++ {
		path := fmt.Sprintf("/gpfs/alpine/sim/shared%02d.chk", ck)
		c2.SharedOpen(darshan.ModuleMPIIO, path, true)
		wall2 += c2.SharedTransfer(darshan.ModuleMPIIO, path, iosim.Write, total, true)
		c2.SharedClose(darshan.ModuleMPIIO, path)
	}
	fmt.Printf("2. collective shared file on Alpine:  %8.2f s  (%s/s)\n",
		wall2, gbPerSec(total*checkpoints, wall2))

	// Strategy 3: write to node-local NVMe, drain asynchronously. The
	// application only waits for the NVMe write; the drain overlaps
	// computation and only the final checkpoint's drain is exposed.
	c3 := newClient(summit, 3)
	var wall3, drain float64
	for ck := 0; ck < checkpoints; ck++ {
		path := fmt.Sprintf("/mnt/bb/sim/ckpt%02d.chk", ck)
		c3.SharedOpen(darshan.ModulePOSIX, path, false)
		wall3 += c3.SharedTransfer(darshan.ModulePOSIX, path, iosim.Write, total, false)
		c3.SharedClose(darshan.ModulePOSIX, path)
		// Background drain to the PFS at the PFS's streaming rate.
		drainPath := fmt.Sprintf("/gpfs/alpine/sim/drain%02d.chk", ck)
		drain = c3.SharedTransfer(darshan.ModulePOSIX, drainPath, iosim.Write, total, false)
	}
	wall3 += drain // the last drain cannot hide behind compute
	// The in-system layer absorbs checkpoints fastest — the deployment
	// rationale for SCNL, and why the paper flags its low utilization
	// (Table 3, Recommendation 3) as an efficiency gap.
	fmt.Printf("3. SCNL + async drain to Alpine:      %8.2f s  (%s/s, last drain exposed)\n",
		wall3, gbPerSec(total*checkpoints, wall3))
	// Output:
	// checkpointing 86016 ranks × 128.00MiB = 10.50TiB per checkpoint, 5 checkpoints
	//
	// 1. file-per-process on Alpine:           61.54 s  (938.0 GB/s)
	// 2. collective shared file on Alpine:     62.15 s  (928.8 GB/s)
	// 3. SCNL + async drain to Alpine:         22.97 s  (2513.3 GB/s, last drain exposed)
}

// Example_mltraining runs the read-intensive, small-request workload the
// paper identifies as the emerging load on supercomputer I/O (§1, Finding
// A): a training job reads a sharded dataset epoch after epoch. The same
// ingest goes through STDIO (the genomics/text-pipeline habit), plain
// POSIX, and staged onto the node-local NVMe layer, on the simulated Summit
// subsystem.
func Example_mltraining() {
	const (
		shards     = 256
		shardSize  = 64 * units.MiB
		sampleSize = 100 * units.KiB // one training sample per read
		epochs     = 3
	)
	summit := systems.NewSummit()
	samplesPerShard := int(shardSize / sampleSize)
	totalPerEpoch := units.ByteSize(shards) * shardSize
	fmt.Printf("dataset: %d shards × %s = %s, %s samples, %d epochs\n\n",
		shards, shardSize, totalPerEpoch, sampleSize, epochs)

	run := func(name string, seed uint64, ingest func(c *iosim.Client) float64) float64 {
		rt := darshan.NewRuntime(darshan.JobHeader{
			JobID: seed, UserID: 7, NProcs: 6 * 4, // 4 nodes × 6 GPU-feeding readers
			StartTime: 0, EndTime: 86_400,
		})
		c := iosim.NewClient(summit, rt, rand.New(rand.NewPCG(seed, 0)))
		secs := ingest(c)
		reads := int64(0)
		for _, rec := range rt.Finalize().Records {
			switch rec.Module {
			case darshan.ModulePOSIX:
				reads += rec.Counters[darshan.PosixReads]
			case darshan.ModuleSTDIO:
				reads += rec.Counters[darshan.StdioReads]
			}
		}
		fmt.Printf("%-34s %9.1f s   %6.2f GB/s   %d read calls\n",
			name, secs, float64(totalPerEpoch)*epochs/1e9/secs, reads)
		return secs
	}
	// sampleReads reads every sample of one reader's share of the shards
	// (readers run in parallel) through module m, under the path pattern.
	sampleReads := func(c *iosim.Client, m darshan.ModuleID, pattern string) float64 {
		var secs float64
		for s := 0; s < shards/8; s++ {
			path := fmt.Sprintf(pattern, s)
			c.Open(m, path, 0)
			for i := 0; i < samplesPerShard; i++ {
				secs += c.Read(m, path, 0, sampleSize, int64(i)*int64(sampleSize))
			}
			c.Close(m, path, 0)
		}
		return secs
	}

	// 1. STDIO sample-by-sample from the PFS: each reader streams its
	//    shards through a FILE*, sample at a time.
	tStdio := run("STDIO sample reads from Alpine", 1, func(c *iosim.Client) float64 {
		var secs float64
		for e := 0; e < epochs; e++ {
			secs += sampleReads(c, darshan.ModuleSTDIO, "/gpfs/alpine/ml/shard%04d.rst")
		}
		return secs
	})

	// 2. POSIX sample-by-sample from the PFS: the same access pattern
	//    through read(2).
	tPosix := run("POSIX sample reads from Alpine", 2, func(c *iosim.Client) float64 {
		var secs float64
		for e := 0; e < epochs; e++ {
			secs += sampleReads(c, darshan.ModulePOSIX, "/gpfs/alpine/ml/shard%04d.bin")
		}
		return secs
	})

	// 3. Stage once to node-local NVMe, then read every epoch from SCNL.
	tStaged := run("stage to SCNL, then local reads", 3, func(c *iosim.Client) float64 {
		var secs float64
		// One-time stage-in: stream the shards across at large request size.
		for s := 0; s < shards/8; s++ {
			secs += c.Read(darshan.ModulePOSIX, fmt.Sprintf("/gpfs/alpine/ml/shard%04d.bin", s), 0, shardSize, 0)
			secs += c.Write(darshan.ModulePOSIX, fmt.Sprintf("/mnt/bb/ml/shard%04d.bin", s), 0, shardSize, 0)
		}
		for e := 0; e < epochs; e++ {
			secs += sampleReads(c, darshan.ModulePOSIX, "/mnt/bb/ml/shard%04d.bin")
		}
		return secs
	})

	// STDIO underperforms POSIX for the same pattern (Recommendation 6),
	// and repeated epochs amortize one stage-in to the node-local layer —
	// the AI/ML usage the in-system layers were deployed for (§1).
	fmt.Println()
	fmt.Printf("POSIX vs STDIO on the PFS:   %.2fx\n", tStdio/tPosix)
	fmt.Printf("SCNL staging vs PFS POSIX:   %.2fx\n", tPosix/tStaged)
	// Output:
	// dataset: 256 shards × 64.00MiB = 16.00GiB, 100.00KiB samples, 3 epochs
	//
	// STDIO sample reads from Alpine          36.4 s     1.42 GB/s   62880 read calls
	// POSIX sample reads from Alpine          33.1 s     1.56 GB/s   62880 read calls
	// stage to SCNL, then local reads          7.3 s     7.02 GB/s   62912 read calls
	//
	// POSIX vs STDIO on the PFS:   1.10x
	// SCNL staging vs PFS POSIX:   4.51x
}
