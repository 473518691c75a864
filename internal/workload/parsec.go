package workload

// This file defines the eleven PARSEC 3.0 / SPLASH-2x stand-ins used by the
// running-application detection attack (§VI-A attack 1). Work units are
// giga-operations; the simulated machines execute roughly 1 Gop/s per core
// at maximum frequency for compute-bound code, so a 120-Gop parallel phase
// lasts about 20 s on a six-core machine at full speed.
//
// Each program's phase structure gives it the kind of distinguishable
// power fingerprint (mean level, variance, loop periodicity, phase
// transitions) that the paper's MLP attack keys on. The specific shapes
// are synthetic but follow the qualitative behaviour of the real codes:
// e.g. blackscholes is a sequential read, one long uniform parallel
// section, and a sequential write-out — the structure visible in Fig 11a.

// AppNames lists the application labels in the order used by the paper's
// confusion matrices (labels 0..10).
var AppNames = []string{
	"blackscholes",   // 0
	"bodytrack",      // 1
	"canneal",        // 2
	"freqmine",       // 3
	"raytrace",       // 4
	"streamcluster",  // 5
	"vips",           // 6
	"radiosity",      // 7
	"volrend",        // 8
	"water_nsquared", // 9
	"water_spatial",  // 10
}

// NewApp returns the synthetic program for one of the eleven applications.
// It panics on an unknown name.
func NewApp(name string) *Program {
	switch name {
	case "blackscholes":
		return NewProgram(name, []Phase{
			{Name: "read", Work: 8, Threads: 1, Activity: 0.45, MemFrac: 0.55, JitterFrac: 0.05},
			{Name: "price", Work: 170, Threads: 6, Activity: 0.95, MemFrac: 0.08, JitterFrac: 0.03},
			{Name: "write", Work: 7, Threads: 1, Activity: 0.40, MemFrac: 0.60, JitterFrac: 0.05},
		})
	case "bodytrack":
		// Frame-structured tracker: alternating particle-filter bursts and
		// sequential model updates; strong medium-period oscillation.
		return NewProgram(name, []Phase{
			{Name: "init", Work: 10, Threads: 1, Activity: 0.50, MemFrac: 0.40, JitterFrac: 0.05},
			{Name: "track1", Work: 60, Threads: 6, Activity: 0.80, MemFrac: 0.22,
				Osc: &Oscillation{Amp: 0.18, PeriodWork: 12}, JitterFrac: 0.04},
			{Name: "resample", Work: 14, Threads: 2, Activity: 0.55, MemFrac: 0.35, JitterFrac: 0.05},
			{Name: "track2", Work: 60, Threads: 6, Activity: 0.82, MemFrac: 0.22,
				Osc: &Oscillation{Amp: 0.18, PeriodWork: 12}, JitterFrac: 0.04},
			{Name: "finish", Work: 8, Threads: 1, Activity: 0.45, MemFrac: 0.40, JitterFrac: 0.05},
		})
	case "canneal":
		// Simulated annealing: memory-bound throughout, activity decaying
		// across the temperature schedule (approximated by stepped phases).
		return NewProgram(name, []Phase{
			{Name: "load", Work: 12, Threads: 1, Activity: 0.40, MemFrac: 0.65, JitterFrac: 0.05},
			{Name: "hot", Work: 55, Threads: 6, Activity: 0.62, MemFrac: 0.62, JitterFrac: 0.04},
			{Name: "warm", Work: 55, Threads: 6, Activity: 0.55, MemFrac: 0.66, JitterFrac: 0.04},
			{Name: "cold", Work: 55, Threads: 6, Activity: 0.48, MemFrac: 0.70, JitterFrac: 0.04},
		})
	case "freqmine":
		// FP-growth mining: ramping parallel phases with growing trees.
		return NewProgram(name, []Phase{
			{Name: "scan", Work: 15, Threads: 2, Activity: 0.50, MemFrac: 0.50, JitterFrac: 0.05},
			{Name: "build", Work: 45, Threads: 6, Activity: 0.68, MemFrac: 0.42, JitterFrac: 0.04},
			{Name: "mine1", Work: 55, Threads: 6, Activity: 0.78, MemFrac: 0.32, JitterFrac: 0.04},
			{Name: "mine2", Work: 65, Threads: 6, Activity: 0.88, MemFrac: 0.25, JitterFrac: 0.04},
		})
	case "raytrace":
		// Steady high compute with slight per-frame shimmer.
		return NewProgram(name, []Phase{
			{Name: "setup", Work: 9, Threads: 1, Activity: 0.50, MemFrac: 0.35, JitterFrac: 0.05},
			{Name: "render", Work: 185, Threads: 6, Activity: 0.90, MemFrac: 0.15,
				Osc: &Oscillation{Amp: 0.07, PeriodWork: 30}, JitterFrac: 0.03},
		})
	case "streamcluster":
		// Streaming clustering: pronounced periodic memory-bound bursts —
		// the strongest natural FFT peaks in the suite.
		return NewProgram(name, []Phase{
			{Name: "stream", Work: 190, Threads: 6, Activity: 0.66, MemFrac: 0.55,
				Osc: &Oscillation{Amp: 0.30, PeriodWork: 9}, JitterFrac: 0.03},
		})
	case "vips":
		// Image pipeline: moderate activity, mid-rate oscillation from the
		// tile pipeline, bounded by a sequential save.
		return NewProgram(name, []Phase{
			{Name: "decode", Work: 12, Threads: 2, Activity: 0.55, MemFrac: 0.45, JitterFrac: 0.05},
			{Name: "pipeline", Work: 140, Threads: 6, Activity: 0.74, MemFrac: 0.30,
				Osc: &Oscillation{Amp: 0.12, PeriodWork: 18}, JitterFrac: 0.04},
			{Name: "encode", Work: 16, Threads: 2, Activity: 0.60, MemFrac: 0.40, JitterFrac: 0.05},
		})
	case "radiosity":
		// Hierarchical radiosity: irregular task-parallel phases.
		return NewProgram(name, []Phase{
			{Name: "bsp", Work: 14, Threads: 1, Activity: 0.55, MemFrac: 0.40, JitterFrac: 0.06},
			{Name: "iter1", Work: 70, Threads: 6, Activity: 0.85, MemFrac: 0.25, JitterFrac: 0.08},
			{Name: "iter2", Work: 45, Threads: 5, Activity: 0.80, MemFrac: 0.28, JitterFrac: 0.08},
			{Name: "iter3", Work: 30, Threads: 4, Activity: 0.74, MemFrac: 0.30, JitterFrac: 0.08},
			{Name: "gather", Work: 12, Threads: 1, Activity: 0.50, MemFrac: 0.45, JitterFrac: 0.06},
		})
	case "volrend":
		// Volume rendering: per-frame periodic compute on shared volume.
		return NewProgram(name, []Phase{
			{Name: "load", Work: 10, Threads: 1, Activity: 0.45, MemFrac: 0.55, JitterFrac: 0.05},
			{Name: "frames", Work: 150, Threads: 6, Activity: 0.70, MemFrac: 0.35,
				Osc: &Oscillation{Amp: 0.20, PeriodWork: 24}, JitterFrac: 0.04},
		})
	case "water_nsquared":
		// O(n²) MD: long steady compute phases with periodic force spikes.
		return NewProgram(name, []Phase{
			{Name: "setup", Work: 8, Threads: 1, Activity: 0.50, MemFrac: 0.30, JitterFrac: 0.05},
			{Name: "steps", Work: 210, Threads: 6, Activity: 1.00, MemFrac: 0.10,
				Osc: &Oscillation{Amp: 0.10, PeriodWork: 42}, JitterFrac: 0.03},
		})
	case "water_spatial":
		// Spatial-decomposition MD: lighter per-step work, faster cadence.
		return NewProgram(name, []Phase{
			{Name: "setup", Work: 8, Threads: 1, Activity: 0.50, MemFrac: 0.30, JitterFrac: 0.05},
			{Name: "steps", Work: 160, Threads: 6, Activity: 0.92, MemFrac: 0.18,
				Osc: &Oscillation{Amp: 0.14, PeriodWork: 21}, JitterFrac: 0.03},
		})
	default:
		panic("workload: unknown application " + name)
	}
}
