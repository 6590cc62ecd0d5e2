package workload

import (
	"iolayers/internal/darshan"
	"iolayers/internal/stats"
	"iolayers/internal/units"
)

// sizeModel builds a per-file transfer-size distribution with the three-part
// structure every layer in the paper exhibits: a lognormal body holding the
// overwhelming majority of files (≥97% below 1 GB, Figure 3), a mid tail of
// gigabyte-to-terabyte files, and a sparse huge tail above 1 TB (Table 4).
func sizeModel(bodyMedian units.ByteSize, sigma float64,
	midWeight float64, midAlpha float64, midLo, midHi units.ByteSize,
	hugeWeight float64, hugeHi units.ByteSize) stats.Sampler {
	body := stats.LogNormal{Median: float64(bodyMedian), Sigma: sigma}
	components := []stats.Component{
		{Weight: 1 - midWeight - hugeWeight, Sampler: body},
	}
	if midWeight > 0 {
		components = append(components, stats.Component{
			Weight: midWeight,
			Sampler: stats.BoundedPareto{
				Alpha: midAlpha,
				Lo:    float64(midLo),
				Hi:    float64(midHi),
			},
		})
	}
	if hugeWeight > 0 {
		components = append(components, stats.Component{
			Weight: hugeWeight,
			Sampler: stats.BoundedPareto{
				Alpha: 0.8,
				Lo:    float64(units.TiB) * 1.001,
				Hi:    float64(hugeHi),
			},
		})
	}
	return stats.NewMixture(components...)
}

func classMix(ro, rw, wo float64) *stats.Categorical[Class] {
	return stats.NewCategorical(
		stats.Weighted[Class]{Value: ReadOnly, Weight: ro},
		stats.Weighted[Class]{Value: ReadWrite, Weight: rw},
		stats.Weighted[Class]{Value: WriteOnly, Weight: wo},
	)
}

func interfaceMix(posix, mpiio, stdio float64) *stats.Categorical[darshan.ModuleID] {
	return stats.NewCategorical(
		stats.Weighted[darshan.ModuleID]{Value: darshan.ModulePOSIX, Weight: posix},
		stats.Weighted[darshan.ModuleID]{Value: darshan.ModuleMPIIO, Weight: mpiio},
		stats.Weighted[darshan.ModuleID]{Value: darshan.ModuleSTDIO, Weight: stdio},
	)
}

func domainMix(pairs ...stats.Weighted[string]) *stats.Categorical[string] {
	return stats.NewCategorical(pairs...)
}

// Summit returns the calibrated profile of the Summit 2020 collection.
//
// Calibration anchors (paper values at full scale):
//   - Table 2: 281.6K jobs, 7.7M logs, 1294M files, 16.4M node-hours.
//   - Table 3: PFS/SCNL file ratio 3.63×; SCNL read-dominated
//     (4.43 PB R / 2.69 PB W), PFS write-dominated (197.75 R / 8278 W).
//   - Table 4: all >1 TB files on the PFS (7232 read / 78 write).
//   - Table 5: 241.5K PFS-only, 0 SCNL-only, 3.42K both.
//   - Table 6: SCNL {POSIX 52M, MPI-IO 6 files, STDIO 227M};
//     PFS {743M, 157M, 404M}.
//   - Figure 4: PFS reads split ≈45%/45% between the 0–100 and 1K–10K
//     bins; SCNL 10K–100K bin holds 83% of reads, 60% of writes.
func Summit() Profile {
	return Profile{
		SystemName:     "Summit",
		Year:           2020,
		DarshanVersion: "3.1.7",
		Jobs:           281600,
		Users:          1100,

		LogsPerJob:    stats.LogNormal{Median: 5, Sigma: 1.9},
		MaxLogsPerJob: 34341,
		NProcs: stats.NewMixture(
			stats.Component{Weight: 0.95, Sampler: stats.LogNormal{Median: 64, Sigma: 1.2}},
			// Explicit capability-class component so Figure 5's >1024-process
			// population is present even in small campaigns.
			stats.Component{Weight: 0.05, Sampler: stats.LogNormal{Median: 2500, Sigma: 0.7}},
		),
		LargeJobProcs: 1024,
		RuntimeSeconds: stats.LogNormal{
			Median: 450, Sigma: 0.9,
		},

		Domains: domainMix(
			stats.Weighted[string]{Value: "Physics", Weight: 0.24},
			stats.Weighted[string]{Value: "Computer Science", Weight: 0.20},
			stats.Weighted[string]{Value: "Materials", Weight: 0.11},
			stats.Weighted[string]{Value: "Chemistry", Weight: 0.09},
			stats.Weighted[string]{Value: "Biology", Weight: 0.07},
			stats.Weighted[string]{Value: "Earth Science", Weight: 0.07},
			stats.Weighted[string]{Value: "Engineering", Weight: 0.06},
			stats.Weighted[string]{Value: "Lattice Theory", Weight: 0.05},
			stats.Weighted[string]{Value: "Medical Science", Weight: 0.04},
			stats.Weighted[string]{Value: "Nuclear", Weight: 0.04},
			stats.Weighted[string]{Value: "Machine Learning", Weight: 0.02},
			stats.Weighted[string]{Value: "Staff", Weight: 0.01},
		),
		DomainCoverage: 1.0, // OLCF scheduler logs record every job's domain
		TunerFraction:  0.20,
		// INCITE allocation-year seasonality: slow January start, a June
		// mid-year review push, and a December use-it-or-lose-it crunch.
		MonthlyActivity: [12]float64{0.5, 0.7, 0.9, 1.0, 1.1, 1.3, 1.0, 1.0, 1.1, 1.2, 1.3, 1.6},
		DomainVolumeScale: map[string]float64{
			"Physics":          2.0,
			"Machine Learning": 1.5,
		},
		InSystemDomainClass: map[string]Class{
			"Biology":   ReadOnly,
			"Materials": ReadOnly,
			"Chemistry": WriteOnly,
		},

		JobClassMix: stats.NewCategorical(
			stats.Weighted[JobLayerClass]{Value: PFSOnly, Weight: 241.5},
			stats.Weighted[JobLayerClass]{Value: InSystemOnly, Weight: 0},
			stats.Weighted[JobLayerClass]{Value: BothLayers, Weight: 3.42},
		),

		PFS: LayerProfile{
			FilesPerLog:  stats.LogNormal{Median: 40, Sigma: 1.63},
			InterfaceMix: interfaceMix(743, 157, 404),
			Interfaces: map[darshan.ModuleID]InterfaceProfile{
				darshan.ModulePOSIX: {
					ClassMix:  classMix(0.68, 0.04, 0.28),
					ReadSize:  sizeModel(2*units.MiB, 2.2, 0.010, 0.45, units.GiB, units.TiB, 4e-5, 16*units.TiB),
					WriteSize: sizeModel(4*units.MiB, 2.2, 0.060, 0.05, 100*units.GiB, 400*units.GiB, 1.5e-7, 8*units.TiB),
				},
				darshan.ModuleMPIIO: {
					ClassMix:  classMix(0.40, 0.20, 0.40),
					ReadSize:  sizeModel(16*units.MiB, 2.0, 0.006, 0.40, units.GiB, units.TiB, 4e-6, 4*units.TiB),
					WriteSize: sizeModel(16*units.MiB, 2.0, 0.020, 0.05, 100*units.GiB, 400*units.GiB, 0, 0),
				},
				darshan.ModuleSTDIO: {
					ClassMix:  classMix(0.30, 0.05, 0.65),
					ReadSize:  sizeModel(8*units.MiB, 2.0, 0.002, 0.6, units.GiB, 512*units.GiB, 0, 0),
					WriteSize: sizeModel(2*units.MiB, 2.0, 0.002, 0.6, units.GiB, 512*units.GiB, 2e-8, 2*units.TiB),
				},
			},
			ReadReq: RequestSizes{Weights: [units.NumRequestBins]float64{
				45, 2, 45, 3, 2, 1, 1, 0.5, 0.4, 0.1}},
			WriteReq: RequestSizes{Weights: [units.NumRequestBins]float64{
				30, 15, 20, 15, 10, 5, 3, 1.5, 0.4, 0.1}},
			SharedFileFrac: 0.03,
			CollectiveFrac: 0.6,
		},

		InSystem: LayerProfile{
			FilesPerJob:  stats.LogNormal{Median: 54400, Sigma: 0.9},
			InterfaceMix: interfaceMix(52, 0.006, 227),
			Interfaces: map[darshan.ModuleID]InterfaceProfile{
				darshan.ModulePOSIX: {
					ClassMix:  classMix(0.55, 0.15, 0.30),
					ReadSize:  sizeModel(4*units.MiB, 1.8, 0.0003, 0.8, units.GiB, 64*units.GiB, 0, 0),
					WriteSize: sizeModel(4*units.MiB, 1.8, 0.0003, 0.8, units.GiB, 64*units.GiB, 0, 0),
				},
				darshan.ModuleMPIIO: {
					ClassMix:  classMix(0.40, 0.20, 0.40),
					ReadSize:  sizeModel(16*units.MiB, 1.8, 0, 0, 0, 0, 0, 0),
					WriteSize: sizeModel(16*units.MiB, 1.8, 0, 0, 0, 0, 0, 0),
				},
				darshan.ModuleSTDIO: {
					ClassMix:  classMix(0.55, 0.15, 0.30),
					ReadSize:  sizeModel(4*units.MiB, 1.8, 0.0003, 0.8, units.GiB, 64*units.GiB, 0, 0),
					WriteSize: sizeModel(4*units.MiB, 1.8, 0.0003, 0.8, units.GiB, 64*units.GiB, 0, 0),
				},
			},
			ReadReq: RequestSizes{Weights: [units.NumRequestBins]float64{
				5, 3, 4, 83, 2.5, 1, 0.7, 0.5, 0.2, 0.1}},
			WriteReq: RequestSizes{Weights: [units.NumRequestBins]float64{
				10, 8, 10, 60, 6, 3, 1.5, 1, 0.4, 0.1}},
			LargeJobReadReq: &RequestSizes{Weights: [units.NumRequestBins]float64{
				3, 2, 3, 60, 10, 8, 6, 5, 2, 1}},
			LargeJobWriteReq: &RequestSizes{Weights: [units.NumRequestBins]float64{
				5, 4, 6, 45, 12, 10, 8, 6, 3, 1}},
			SharedFileFrac: 0.02,
			CollectiveFrac: 0.5,
		},

		StdioExtensions: domainMix(
			stats.Weighted[string]{Value: "rst", Weight: 0.30},
			stats.Weighted[string]{Value: "dat", Weight: 0.25},
			stats.Weighted[string]{Value: "vol", Weight: 0.15},
			stats.Weighted[string]{Value: "log", Weight: 0.15},
			stats.Weighted[string]{Value: "txt", Weight: 0.10},
			stats.Weighted[string]{Value: "out", Weight: 0.05},
		),
		DataExtensions: domainMix(
			stats.Weighted[string]{Value: "h5", Weight: 0.35},
			stats.Weighted[string]{Value: "nc", Weight: 0.20},
			stats.Weighted[string]{Value: "bin", Weight: 0.20},
			stats.Weighted[string]{Value: "chk", Weight: 0.15},
			stats.Weighted[string]{Value: "dat", Weight: 0.10},
		),
	}
}

// Cori returns the calibrated profile of the Cori 2019 collection.
//
// Calibration anchors (paper values at full scale):
//   - Table 2: 749.5K jobs, 4.3M logs, 416M files, 45.5M node-hours.
//   - Table 3: PFS/CBB file ratio 28.87×; both layers read-dominated
//     (CBB 13.71 R / 4.34 W = 3.16×; PFS 171.64 R / 26.10 W = 6.58×).
//   - Table 4: >1 TB reads concentrate on CBB (513 vs 74); >1 TB writes on
//     the PFS (10045 vs 950).
//   - Table 5: 579.91K PFS-only, 103.46K CBB-only (14.38% of jobs wholly
//     inside the burst buffer, thanks to DataWarp staging), 35.9K both.
//   - Table 6: CBB {POSIX 13M, MPI-IO 13M, STDIO 0.65M};
//     PFS {313M, 207M, 89M}.
func Cori() Profile {
	return Profile{
		SystemName:     "Cori",
		Year:           2019,
		DarshanVersion: "3.0/3.1",
		Jobs:           749500,
		Users:          2300,

		LogsPerJob:    stats.LogNormal{Median: 2, Sigma: 1.45},
		MaxLogsPerJob: 9999,
		NProcs: stats.NewMixture(
			stats.Component{Weight: 0.94, Sampler: stats.LogNormal{Median: 256, Sigma: 1.3}},
			stats.Component{Weight: 0.06, Sampler: stats.LogNormal{Median: 3000, Sigma: 0.7}},
		),
		LargeJobProcs: 1024,
		RuntimeSeconds: stats.LogNormal{
			Median: 1800, Sigma: 0.9,
		},

		Domains: domainMix(
			stats.Weighted[string]{Value: "Physics", Weight: 0.22},
			stats.Weighted[string]{Value: "Materials", Weight: 0.15},
			stats.Weighted[string]{Value: "Chemistry", Weight: 0.12},
			stats.Weighted[string]{Value: "Earth Science", Weight: 0.10},
			stats.Weighted[string]{Value: "Fusion", Weight: 0.08},
			stats.Weighted[string]{Value: "Computer Science", Weight: 0.07},
			stats.Weighted[string]{Value: "Biology", Weight: 0.06},
			stats.Weighted[string]{Value: "Energy Sciences", Weight: 0.06},
			stats.Weighted[string]{Value: "Engineering", Weight: 0.04},
			stats.Weighted[string]{Value: "Machine Learning", Weight: 0.04},
			stats.Weighted[string]{Value: "Nuclear Energy", Weight: 0.03},
			stats.Weighted[string]{Value: "Mathematics", Weight: 0.02},
			stats.Weighted[string]{Value: "Unknown", Weight: 0.01},
		),
		DomainCoverage: 0.9002, // NEWT project join covered 90.02% (§3.3.2)
		TunerFraction:  0.25,
		// ERCAP allocation-year seasonality on the NERSC cycle.
		MonthlyActivity: [12]float64{0.6, 0.8, 1.0, 1.0, 1.1, 1.2, 1.0, 0.9, 1.1, 1.2, 1.3, 1.5},
		DomainVolumeScale: map[string]float64{
			"Physics":          2.0,
			"Earth Science":    1.5,
			"Machine Learning": 1.5,
		},

		JobClassMix: stats.NewCategorical(
			stats.Weighted[JobLayerClass]{Value: PFSOnly, Weight: 579.91},
			stats.Weighted[JobLayerClass]{Value: InSystemOnly, Weight: 103.46},
			stats.Weighted[JobLayerClass]{Value: BothLayers, Weight: 35.9},
		),

		PFS: LayerProfile{
			FilesPerLog:  stats.LogNormal{Median: 30, Sigma: 1.63},
			InterfaceMix: interfaceMix(313, 207, 89),
			Interfaces: map[darshan.ModuleID]InterfaceProfile{
				darshan.ModulePOSIX: {
					ClassMix:  classMix(0.60, 0.10, 0.30),
					ReadSize:  sizeModel(4*units.MiB, 2.2, 0.012, 0.25, units.GiB, 512*units.GiB, 1.8e-7, 4*units.TiB),
					WriteSize: sizeModel(2*units.MiB, 2.2, 0.002, 0.30, units.GiB, 512*units.GiB, 2.5e-5, 8*units.TiB),
				},
				darshan.ModuleMPIIO: {
					ClassMix:  classMix(0.55, 0.15, 0.30),
					ReadSize:  sizeModel(8*units.MiB, 2.0, 0.012, 0.25, units.GiB, 512*units.GiB, 1.8e-7, 4*units.TiB),
					WriteSize: sizeModel(8*units.MiB, 2.0, 0.002, 0.30, units.GiB, 512*units.GiB, 2.5e-5, 8*units.TiB),
				},
				darshan.ModuleSTDIO: {
					ClassMix:  classMix(0.40, 0.10, 0.50),
					ReadSize:  sizeModel(4*units.MiB, 2.0, 0.003, 0.6, units.GiB, 256*units.GiB, 0, 0),
					WriteSize: sizeModel(units.MiB, 2.0, 0.002, 0.6, units.GiB, 256*units.GiB, 0, 0),
				},
			},
			ReadReq: RequestSizes{Weights: [units.NumRequestBins]float64{
				35, 20, 15, 10, 10, 5, 3, 1.5, 0.4, 0.1}},
			WriteReq: RequestSizes{Weights: [units.NumRequestBins]float64{
				25, 20, 15, 15, 12, 7, 3, 2, 0.8, 0.2}},
			SharedFileFrac: 0.04,
			CollectiveFrac: 0.65,
		},

		InSystem: LayerProfile{
			FilesPerLog:  stats.LogNormal{Median: 9, Sigma: 1.23},
			InterfaceMix: interfaceMix(13, 13, 0.65),
			Interfaces: map[darshan.ModuleID]InterfaceProfile{
				darshan.ModulePOSIX: {
					ClassMix:  classMix(0.60, 0.10, 0.30),
					ReadSize:  sizeModel(32*units.MiB, 2.2, 0.059, 0.25, units.GiB, 128*units.GiB, 3.7e-5, 4*units.TiB),
					WriteSize: sizeModel(32*units.MiB, 2.2, 0.024, 0.25, units.GiB, 128*units.GiB, 6.8e-5, 4*units.TiB),
				},
				darshan.ModuleMPIIO: {
					ClassMix:  classMix(0.55, 0.15, 0.30),
					ReadSize:  sizeModel(32*units.MiB, 2.2, 0.059, 0.25, units.GiB, 128*units.GiB, 3.7e-5, 4*units.TiB),
					WriteSize: sizeModel(32*units.MiB, 2.2, 0.024, 0.25, units.GiB, 128*units.GiB, 6.8e-5, 4*units.TiB),
				},
				darshan.ModuleSTDIO: {
					ClassMix:  classMix(0.50, 0.20, 0.30),
					ReadSize:  sizeModel(16*units.MiB, 2.0, 0.010, 0.5, units.GiB, 512*units.GiB, 0, 0),
					WriteSize: sizeModel(8*units.MiB, 2.0, 0.010, 0.5, units.GiB, 512*units.GiB, 0, 0),
				},
			},
			ReadReq: RequestSizes{Weights: [units.NumRequestBins]float64{
				15, 10, 10, 15, 20, 15, 8, 5, 1.5, 0.5}},
			WriteReq: RequestSizes{Weights: [units.NumRequestBins]float64{
				15, 10, 10, 15, 20, 15, 8, 5, 1.5, 0.5}},
			LargeJobReadReq: &RequestSizes{Weights: [units.NumRequestBins]float64{
				8, 5, 6, 12, 20, 18, 14, 10, 5, 2}},
			LargeJobWriteReq: &RequestSizes{Weights: [units.NumRequestBins]float64{
				8, 5, 6, 12, 20, 18, 14, 10, 5, 2}},
			SharedFileFrac: 0.05,
			CollectiveFrac: 0.6,
		},

		StdioExtensions: domainMix(
			stats.Weighted[string]{Value: "rst", Weight: 0.35},
			stats.Weighted[string]{Value: "dat", Weight: 0.22},
			stats.Weighted[string]{Value: "vol", Weight: 0.13},
			stats.Weighted[string]{Value: "log", Weight: 0.15},
			stats.Weighted[string]{Value: "txt", Weight: 0.10},
			stats.Weighted[string]{Value: "out", Weight: 0.05},
		),
		DataExtensions: domainMix(
			stats.Weighted[string]{Value: "h5", Weight: 0.35},
			stats.Weighted[string]{Value: "nc", Weight: 0.25},
			stats.Weighted[string]{Value: "bin", Weight: 0.15},
			stats.Weighted[string]{Value: "chk", Weight: 0.15},
			stats.Weighted[string]{Value: "dat", Weight: 0.10},
		),
	}
}

// Profiles returns the two shipped profiles keyed by system name.
func Profiles() map[string]Profile {
	return map[string]Profile{
		"Summit": Summit(),
		"Cori":   Cori(),
	}
}
