package datawarp_test

import (
	"fmt"
	"math/rand/v2"

	"iolayers/internal/darshan"
	"iolayers/internal/iosim"
	"iolayers/internal/iosim/datawarp"
	"iolayers/internal/iosim/systems"
	"iolayers/internal/units"
)

// Example_staging scripts the DataWarp job lifecycle against the simulated
// Cori subsystem and contrasts it with running the same analysis directly
// on the Lustre scratch system. Cori's burst buffer integrates with the
// batch scheduler through #DW directives (paper §2.1.2): a job declares
// capacity and stage_in/stage_out lists, and the system moves the data
// around the job's lifetime without the application doing anything.
func Example_staging() {
	const (
		datasetSize = 400 * units.GiB
		resultSize  = 40 * units.GiB
		passes      = 4 // analysis passes over the dataset
		nprocs      = 256
	)
	cori := systems.NewCori()
	cbb := cori.InSystem.(*datawarp.FS)

	// The job script declares its burst-buffer allocation and staging:
	//
	//   #DW jobdw capacity=500GiB access_mode=striped
	//   #DW stage_in  source=/global/cscratch1/sim/dataset dest=$DW_JOB type=directory
	//   #DW stage_out source=$DW_JOB/results dest=/global/cscratch1/sim type=directory
	capacity := 500 * units.GiB
	bbNodes := cbb.AllocationFor(capacity)
	fmt.Printf("#DW jobdw capacity=%s  => %d burst-buffer nodes\n\n", capacity, bbNodes)

	rng := rand.New(rand.NewPCG(9, 9))

	// --- With DataWarp staging ---
	rt := darshan.NewRuntime(darshan.JobHeader{
		JobID: 1, UserID: 3, NProcs: nprocs, StartTime: 0, EndTime: 86_400,
	})
	c := iosim.NewClient(cori, rt, rand.New(rand.NewPCG(1, 1)),
		iosim.WithBurstBufferNodes(bbNodes))

	// Scheduler-driven stage-in happens before the job's first timestep.
	stageIn := cbb.Stage(cori.PFS, datasetSize, bbNodes, rng)

	var compute float64
	for p := 0; p < passes; p++ {
		path := "/var/opt/cray/dws/job1/dataset.bin"
		for off := units.ByteSize(0); off < datasetSize; off += datasetSize / 64 {
			compute += c.SharedTransfer(darshan.ModulePOSIX, path, iosim.Read, datasetSize/64, false)
		}
	}
	compute += c.SharedTransfer(darshan.ModulePOSIX, "/var/opt/cray/dws/job1/results.h5",
		iosim.Write, resultSize, false)

	stageOut := cbb.Stage(cori.PFS, resultSize, bbNodes, rng)
	withBB := stageIn + compute + stageOut
	fmt.Printf("with DataWarp:   stage_in %6.1f s + job I/O %6.1f s + stage_out %5.1f s = %7.1f s\n",
		stageIn, compute, stageOut, withBB)

	// --- Direct on Lustre scratch ---
	rt2 := darshan.NewRuntime(darshan.JobHeader{
		JobID: 2, UserID: 3, NProcs: nprocs, StartTime: 0, EndTime: 86_400,
	})
	c2 := iosim.NewClient(cori, rt2, rand.New(rand.NewPCG(2, 2)))
	var direct float64
	for p := 0; p < passes; p++ {
		path := "/global/cscratch1/sim/dataset.bin"
		for off := units.ByteSize(0); off < datasetSize; off += datasetSize / 64 {
			direct += c2.SharedTransfer(darshan.ModulePOSIX, path, iosim.Read, datasetSize/64, false)
		}
	}
	direct += c2.SharedTransfer(darshan.ModulePOSIX, "/global/cscratch1/sim/results.h5",
		iosim.Write, resultSize, false)
	fmt.Printf("direct Lustre:   job I/O %6.1f s                                     = %7.1f s\n\n",
		direct, direct)

	// Staging pays once and every pass reads at burst-buffer rates; the
	// 14.38% of Cori jobs that ran CBB-exclusively (Table 5) were doing
	// exactly this, and Recommendation 3 asks for tools that make it easy.
	fmt.Printf("speedup with staging: %.2fx over %d passes\n", direct/withBB, passes)
	// Output:
	// #DW jobdw capacity=500.00GiB  => 25 burst-buffer nodes
	//
	// with DataWarp:   stage_in    8.0 s + job I/O   15.4 s + stage_out   1.3 s =    24.7 s
	// direct Lustre:   job I/O 1450.0 s                                     =  1450.0 s
	//
	// speedup with staging: 58.68x over 4 passes
}
