package workload

// Webpage-visit workloads for the webpage-identification attack (§VI-A
// attack 3). The paper records ~15 s Chrome visits to seven sites on Sys3
// while tapping the victim's AC outlet. Each synthetic visit models the
// browser pipeline: network-bound fetch, parse/layout burst, paint, then a
// steady state whose character differs per site (video playback for
// youtube/ted, scripted widgets for chase/amazon/paypal, near-idle reading
// for google/ieee). Because the attack classifies FFT features, each page
// gets a distinctive steady-state periodicity (timers, video frame cadence).

// PageNames lists the webpage labels in the order used by the paper
// (labels 0..6).
var PageNames = []string{
	"google",  // 0
	"ted",     // 1
	"youtube", // 2
	"chase",   // 3
	"ieee",    // 4
	"amazon",  // 5
	"paypal",  // 6
}

type pageSpec struct {
	fetchWork  float64 // network+parse, low power, memory-bound
	layoutWork float64 // layout/JS burst, high power
	steadyWork float64 // remaining visit
	steadyAct  float64
	steadyMem  float64
	timerAmp   float64 // periodic steady-state component
	timerSec   float64 // wall-clock seconds per timer cycle
	threads    int
}

// Steady-state cadences are wall-clock (setInterval timers, animation and
// video frame pacing): they keep their spectral position regardless of how
// fast the CPU runs, which is exactly why the paper's webpage attack
// classifies FFT features and why DVFS-style defenses cannot move the
// peaks. Periods are chosen between 0.4 s and 1.7 s (0.6–2.5 Hz) — well
// inside the outlet sensor's 10 Hz Nyquist band.
var pageSpecs = map[string]pageSpec{
	// Light landing page: tiny fetch, brief layout, near-idle steady state.
	"google": {fetchWork: 1.5, layoutWork: 3, steadyWork: 14, steadyAct: 0.10, steadyMem: 0.5, timerAmp: 0.04, timerSec: 1.30, threads: 1},
	// ted: hero video autoplays — sustained decode with frame cadence.
	"ted": {fetchWork: 4, layoutWork: 9, steadyWork: 52, steadyAct: 0.58, steadyMem: 0.30, timerAmp: 0.16, timerSec: 0.52, threads: 4},
	// youtube: heavier video decode, faster segment cadence.
	"youtube": {fetchWork: 5, layoutWork: 11, steadyWork: 70, steadyAct: 0.74, steadyMem: 0.26, timerAmp: 0.20, timerSec: 0.41, threads: 4},
	// chase: scripted banking dashboard, mid-rate widget timers.
	"chase": {fetchWork: 3.5, layoutWork: 13, steadyWork: 30, steadyAct: 0.36, steadyMem: 0.40, timerAmp: 0.10, timerSec: 0.90, threads: 3},
	// ieee xplore: document-heavy, long parse, quiet afterwards.
	"ieee": {fetchWork: 5, layoutWork: 7, steadyWork: 16, steadyAct: 0.14, steadyMem: 0.48, timerAmp: 0.04, timerSec: 1.65, threads: 1},
	// amazon: image-heavy storefront with carousel animation.
	"amazon": {fetchWork: 6, layoutWork: 15, steadyWork: 40, steadyAct: 0.48, steadyMem: 0.36, timerAmp: 0.13, timerSec: 0.66, threads: 4},
	// paypal: moderate page with periodic session keepalives.
	"paypal": {fetchWork: 2.5, layoutWork: 8, steadyWork: 24, steadyAct: 0.24, steadyMem: 0.44, timerAmp: 0.08, timerSec: 1.08, threads: 2},
}

// NewPage returns the synthetic browser visit to the named site.
// It panics on an unknown name.
func NewPage(name string) *Program {
	s, ok := pageSpecs[name]
	if !ok {
		panic("workload: unknown page " + name)
	}
	return NewProgram("web/"+name, []Phase{
		{Name: "fetch", Work: s.fetchWork, Threads: 2, Activity: 0.22, MemFrac: 0.70, JitterFrac: 0.15},
		{Name: "layout", Work: s.layoutWork, Threads: s.threads, Activity: 0.80, MemFrac: 0.30, JitterFrac: 0.10},
		{Name: "paint", Work: 2, Threads: 2, Activity: 0.55, MemFrac: 0.40, JitterFrac: 0.10},
		{Name: "steady", Work: s.steadyWork, Threads: s.threads, Activity: s.steadyAct, MemFrac: s.steadyMem,
			TimeOsc: &TimeOscillation{Amp: s.timerAmp, PeriodSec: s.timerSec, JitterFrac: 0.12}, JitterFrac: 0.08},
	})
}
