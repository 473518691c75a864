package workload

// Video-encoding workloads for the video-identification attack (§VI-A
// attack 2). The paper transcodes four raw test sequences from Derf's
// collection with FFmpeg x264 on Sys2. Each synthetic encoder below models
// the x264 encode loop: a GOP-periodic sequence (expensive I-frames every
// GOPLen frames, cheaper P/B frames) whose per-frame cost profile follows
// the character of the source content:
//
//   - tractor:   high, fairly uniform motion — heavy throughout
//   - riverbed:  chaotic water texture — the heaviest, high variance
//   - wind:      moderate motion with gusty bursts
//   - sunflower: nearly static — light with occasional refresh spikes
//
// The distinct mean levels, GOP periods, and burst structures are what an
// MLP classifier keys on, mirroring the real attack.

// VideoNames lists the video labels in the order used by the paper
// (labels 0..3: tractor, riverbed, wind, sunflower).
var VideoNames = []string{"tractor", "riverbed", "wind", "sunflower"}

type videoSpec struct {
	frames     int
	gopLen     int
	iFrameWork float64 // Gops per I-frame
	pFrameWork float64 // Gops per P/B frame
	activity   float64
	memFrac    float64
	burstAmp   float64 // content-driven activity modulation
	burstWork  float64 // work units per content cycle
}

var videoSpecs = map[string]videoSpec{
	"tractor":   {frames: 140, gopLen: 24, iFrameWork: 3.6, pFrameWork: 1.30, activity: 0.88, memFrac: 0.22, burstAmp: 0.08, burstWork: 35},
	"riverbed":  {frames: 120, gopLen: 18, iFrameWork: 4.4, pFrameWork: 1.80, activity: 0.97, memFrac: 0.18, burstAmp: 0.16, burstWork: 22},
	"wind":      {frames: 150, gopLen: 30, iFrameWork: 3.0, pFrameWork: 0.95, activity: 0.78, memFrac: 0.28, burstAmp: 0.12, burstWork: 50},
	"sunflower": {frames: 170, gopLen: 48, iFrameWork: 2.6, pFrameWork: 0.55, activity: 0.66, memFrac: 0.34, burstAmp: 0.05, burstWork: 70},
}

// NewVideo returns the synthetic encode of the named test sequence.
// It panics on an unknown name.
func NewVideo(name string) *Program {
	spec, ok := videoSpecs[name]
	if !ok {
		panic("workload: unknown video " + name)
	}
	phases := make([]Phase, 0, spec.frames/spec.gopLen*2+2)
	phases = append(phases, Phase{
		Name: "probe", Work: 4, Threads: 1, Activity: 0.45, MemFrac: 0.5, JitterFrac: 0.05,
	})
	for f := 0; f < spec.frames; f += spec.gopLen {
		gopFrames := spec.gopLen
		if f+gopFrames > spec.frames {
			gopFrames = spec.frames - f
		}
		// I-frame burst: short, intense, low memory stall (intra transforms).
		phases = append(phases, Phase{
			Name: "iframe", Work: spec.iFrameWork, Threads: 16,
			Activity: spec.activity + 0.12, MemFrac: spec.memFrac * 0.7,
			JitterFrac: 0.06,
		})
		// Inter frames: the bulk of the GOP, with content-driven modulation.
		phases = append(phases, Phase{
			Name: "inter", Work: spec.pFrameWork * float64(gopFrames-1), Threads: 16,
			Activity: spec.activity, MemFrac: spec.memFrac,
			Osc:        &Oscillation{Amp: spec.burstAmp, PeriodWork: spec.burstWork},
			JitterFrac: 0.05,
		})
	}
	phases = append(phases, Phase{
		Name: "mux", Work: 5, Threads: 1, Activity: 0.40, MemFrac: 0.55, JitterFrac: 0.05,
	})
	return NewProgram("video/"+name, phases)
}
