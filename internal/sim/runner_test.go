package sim

import (
	"math"
	"testing"

	"github.com/maya-defense/maya/internal/workload"
)

// countdown is a one-thread workload that completes on the n-th tick the
// machine runs it, whatever work that tick does.
type countdown struct{ left int }

func (c *countdown) Name() string            { return "countdown" }
func (c *countdown) Demand() workload.Demand { return workload.Demand{Threads: 1, Activity: 1} }
func (c *countdown) Advance(float64) bool    { c.left--; return c.left == 0 }
func (c *countdown) Done() bool              { return c.left <= 0 }
func (c *countdown) TotalWork() float64      { return 0 }
func (c *countdown) Reset(uint64)            {}

// windowSensor averages the true power of the ticks observed since its
// last read and logs each read's window length.
type windowSensor struct {
	sum     float64
	n       int
	windows []int
}

func (s *windowSensor) Observe(r StepResult) { s.sum += r.PowerW; s.n++ }

func (s *windowSensor) ReadW() float64 {
	s.windows = append(s.windows, s.n)
	if s.n == 0 {
		return 0
	}
	p := s.sum / float64(s.n)
	s.sum, s.n = 0, 0
	return p
}

// tickCounter counts the ticks it observes.
type tickCounter struct{ observed int }

func (c *tickCounter) Observe(StepResult) { c.observed++ }
func (c *tickCounter) ReadW() float64     { return float64(c.observed) }

// TestRunStopOnFinishAtPeriodBoundary pins how a run ends when its
// workload completes on a period boundary (tick k·20) and three ticks past
// one. Under StopOnFinish the completing tick ends the run: the defense
// sensor is read once more over the final partial period, no decision
// follows, and neither the trace nor the samplers see a later tick.
// Without StopOnFinish the run goes on to MaxTicks. The warmup ends
// mid-period; its ticks reach the defense sensor but not the samplers.
func TestRunStopOnFinishAtPeriodBoundary(t *testing.T) {
	const period, k, warmup, maxTicks, sampleTicks = 20, 5, 30, 200, 7
	for _, tc := range []struct {
		name   string
		finish int
		stop   bool
	}{
		{"boundary/stop", k * period, true},
		{"boundary+3/stop", k*period + 3, true},
		{"boundary/run-on", k * period, false},
		{"boundary+3/run-on", k*period + 3, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMachine(Sys1(), 1)
			decides := 0
			pol := PolicyFunc(func(int, float64) Inputs {
				decides++
				return Inputs{FreqGHz: m.Config().FmaxGHz}
			})
			def := &windowSensor{}
			spy := &tickCounter{}
			sampler := &Sampler{Sensor: spy, PeriodTicks: sampleTicks}
			res := Run(m, &countdown{left: tc.finish}, pol, RunSpec{
				ControlPeriodTicks: period,
				MaxTicks:           maxTicks,
				StopOnFinish:       tc.stop,
				Samplers:           []*Sampler{sampler},
				WarmupTicks:        warmup,
				DefenseSensor:      def,
			})

			// ticks is the recorded run's length; boundaries counts the
			// recorded period boundaries that were decided: under
			// StopOnFinish not the one on the completing tick itself.
			ticks, boundaries := maxTicks, maxTicks/period
			if tc.stop {
				ticks, boundaries = tc.finish, (tc.finish-1)/period
			}
			if res.FinishedTick != int64(tc.finish) {
				t.Errorf("FinishedTick = %d, want %d", res.FinishedTick, tc.finish)
			}
			if len(res.TickPowerW) != ticks || len(res.TickWallW) != ticks {
				t.Errorf("per-tick traces hold %d/%d ticks, want %d", len(res.TickPowerW), len(res.TickWallW), ticks)
			}
			if len(res.InputTrace) != 1+boundaries {
				t.Errorf("InputTrace holds %d inputs, want %d", len(res.InputTrace), 1+boundaries)
			}
			if want := 1 + warmup/period + boundaries; decides != want {
				t.Errorf("Decide ran %d times, want %d", decides, want)
			}
			if spy.observed != ticks || len(sampler.Samples) != ticks/sampleTicks {
				t.Errorf("sampler saw %d ticks and kept %d samples, want %d and %d",
					spy.observed, len(sampler.Samples), ticks, ticks/sampleTicks)
			}

			samples := boundaries
			if tc.stop {
				samples++ // the final partial reading
			}
			if len(res.DefenseSamples) != samples {
				t.Fatalf("DefenseSamples holds %d readings, want %d", len(res.DefenseSamples), samples)
			}
			last := (samples - 1) * period
			if got := def.windows[len(def.windows)-1]; got != ticks-last {
				t.Errorf("last reading spans %d ticks, want %d", got, ticks-last)
			}
			sum := 0.0
			for _, p := range res.TickPowerW[last:] {
				sum += p
			}
			want := sum / float64(ticks-last)
			if got := res.DefenseSamples[samples-1]; math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("last reading = %v, want the mean of ticks [%d, %d) = %v", got, last, ticks, want)
			}
		})
	}
}

// TestLoopBoundaryMatchesModulo pins the loop's counted-down control
// periods to the modulo they replace: the recorded tick numbered tick
// (from 1) ends a period exactly when tick % P == 0, and a sampler of
// period S has kept tick / S samples, whatever the warmup left of its
// last period. The warmup decides at each of its own boundaries.
func TestLoopBoundaryMatchesModulo(t *testing.T) {
	const maxTicks, sampleTicks = 100, 3
	for _, period := range []int{1, 7, 20} {
		for _, warmup := range []int{0, 13, 40} {
			m := NewMachine(Sys1(), 1)
			decides := 0
			pol := PolicyFunc(func(int, float64) Inputs {
				decides++
				return Inputs{FreqGHz: m.Config().FmaxGHz}
			})
			sampler := &Sampler{Sensor: &tickCounter{}, PeriodTicks: sampleTicks}
			l := NewLoop(m, workload.Idle{}, pol, RunSpec{
				ControlPeriodTicks: period,
				MaxTicks:           maxTicks,
				Samplers:           []*Sampler{sampler},
				WarmupTicks:        warmup,
			})
			l.Start()
			if want := 1 + warmup/period; decides != want {
				t.Errorf("P=%d warmup=%d: warmup decided %d times, want %d", period, warmup, decides, want)
			}
			for tick := 1; !l.Done(); tick++ {
				_, _, boundary := l.Tick()
				if boundary != (tick%period == 0) {
					t.Fatalf("P=%d warmup=%d: tick %d boundary = %v", period, warmup, tick, boundary)
				}
				if len(sampler.Samples) != tick/sampleTicks {
					t.Fatalf("P=%d warmup=%d: tick %d: %d samples, want %d",
						period, warmup, tick, len(sampler.Samples), tick/sampleTicks)
				}
				if boundary {
					l.Sense()
					l.Decide()
					l.Actuate()
				}
			}
		}
	}
}
