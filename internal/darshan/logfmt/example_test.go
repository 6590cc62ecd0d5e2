package logfmt_test

import (
	"bytes"
	"fmt"
	"log"
	"math/rand/v2"

	"iolayers/internal/darshan"
	"iolayers/internal/darshan/logfmt"
	"iolayers/internal/iosim"
	"iolayers/internal/iosim/systems"
	"iolayers/internal/units"
)

// Example_quickstart instruments an application's I/O with the
// Darshan-equivalent runtime, runs it against the simulated Summit I/O
// subsystem, encodes the resulting log in the versioned compressed format,
// and parses it back.
func Example_quickstart() {
	// 1. A "job" starts: the runtime plays the role of the Darshan core
	//    library loaded at MPI_Init.
	summit := systems.NewSummit()
	rt := darshan.NewRuntime(darshan.JobHeader{
		JobID:     424242,
		UserID:    1001,
		NProcs:    84, // two Summit nodes
		StartTime: 1_600_000_000,
		EndTime:   1_600_003_600,
		Exe:       "/sw/summit/quickstart/app.x",
		Metadata:  map[string]string{"domain": "Computer Science"},
	})

	// 2. The application does I/O through the instrumented client. Every
	//    operation's duration comes from the simulated storage layers.
	client := iosim.NewClient(summit, rt, rand.New(rand.NewPCG(42, 1)))

	// A config file read through STDIO on the parallel file system.
	cfgPath := "/gpfs/alpine/cs/proj/config.txt"
	client.Open(darshan.ModuleSTDIO, cfgPath, 0)
	client.Read(darshan.ModuleSTDIO, cfgPath, 0, 4*units.KiB, 0)
	client.Close(darshan.ModuleSTDIO, cfgPath, 0)

	// Input data read in 1 MiB chunks through POSIX.
	inPath := "/gpfs/alpine/cs/proj/input.h5"
	client.Open(darshan.ModulePOSIX, inPath, 0)
	for i := int64(0); i < 64; i++ {
		client.Read(darshan.ModulePOSIX, inPath, 0, units.MiB, i*int64(units.MiB))
	}
	client.Close(darshan.ModulePOSIX, inPath, 0)

	// Scratch written to the node-local NVMe layer (SCNL).
	tmpPath := "/mnt/bb/u1001/scratch.dat"
	client.Open(darshan.ModulePOSIX, tmpPath, 0)
	client.Write(darshan.ModulePOSIX, tmpPath, 0, 16*units.MiB, 0)
	client.Close(darshan.ModulePOSIX, tmpPath, 0)

	// A checkpoint written collectively by all ranks through MPI-IO.
	chkPath := "/gpfs/alpine/cs/proj/ckpt.0001.h5"
	client.SharedOpen(darshan.ModuleMPIIO, chkPath, true)
	client.SharedTransfer(darshan.ModuleMPIIO, chkPath, iosim.Write, 512*units.MiB, true)
	client.SharedClose(darshan.ModuleMPIIO, chkPath)

	// 3. The job ends: the runtime reduces shared files and seals the log,
	//    which is encoded as a job424242.darshan file's bytes would be.
	var buf bytes.Buffer
	if err := logfmt.Write(&buf, rt.Finalize()); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("job424242.darshan: %d bytes\n\n", buf.Len())

	// 4. Parse it back, as an analysis tool would.
	parsed, err := logfmt.Read(&buf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("job %d: %d processes, %d file records\n",
		parsed.Job.JobID, parsed.Job.NProcs, len(parsed.Records))
	for _, rec := range parsed.Records {
		path := parsed.PathOf(rec.Record)
		switch rec.Module {
		case darshan.ModulePOSIX:
			fmt.Printf("  POSIX  rank %3d  %-36s reads=%-3d writes=%-3d bytes R/W=%d/%d\n",
				rec.Rank, path,
				rec.Counters[darshan.PosixReads], rec.Counters[darshan.PosixWrites],
				rec.Counters[darshan.PosixBytesRead], rec.Counters[darshan.PosixBytesWritten])
		case darshan.ModuleSTDIO:
			fmt.Printf("  STDIO  rank %3d  %-36s reads=%-3d writes=%-3d bytes R/W=%d/%d\n",
				rec.Rank, path,
				rec.Counters[darshan.StdioReads], rec.Counters[darshan.StdioWrites],
				rec.Counters[darshan.StdioBytesRead], rec.Counters[darshan.StdioBytesWritten])
		case darshan.ModuleMPIIO:
			fmt.Printf("  MPI-IO rank %3d  %-36s coll writes=%d bytes W=%d\n",
				rec.Rank, path,
				rec.Counters[darshan.MpiioCollWrites],
				rec.Counters[darshan.MpiioBytesWritten])
		}
	}
	// Output:
	// job424242.darshan: 792 bytes
	//
	// job 424242: 84 processes, 5 file records
	//   POSIX  rank  -1  /gpfs/alpine/cs/proj/ckpt.0001.h5    reads=0   writes=1   bytes R/W=0/536870912
	//   POSIX  rank   0  /gpfs/alpine/cs/proj/input.h5        reads=64  writes=0   bytes R/W=67108864/0
	//   POSIX  rank   0  /mnt/bb/u1001/scratch.dat            reads=0   writes=1   bytes R/W=0/16777216
	//   MPI-IO rank  -1  /gpfs/alpine/cs/proj/ckpt.0001.h5    coll writes=1 bytes W=536870912
	//   STDIO  rank   0  /gpfs/alpine/cs/proj/config.txt      reads=1   writes=0   bytes R/W=4096/0
}
