package workload

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// Replay is a Workload driven by a recorded per-tick demand trace rather
// than a phase program: users who have profiled a real application (e.g.
// per-millisecond utilization and memory-boundedness from perf counters)
// can replay it against the simulated machine and the defense. The trace
// is wall-clock indexed; progress accounting still flows through Advance so
// slowdown statistics work, with one trace entry consumed per tick.
type Replay struct {
	name    string
	demands []Demand
	tick    int64
	loop    bool
}

// NewReplay wraps a demand trace. If loop is true the trace repeats
// forever; otherwise the workload finishes when the trace is exhausted.
func NewReplay(name string, demands []Demand, loop bool) *Replay {
	if len(demands) == 0 {
		panic("workload: empty replay trace")
	}
	return &Replay{name: name, demands: demands, loop: loop}
}

// Name implements Workload.
func (r *Replay) Name() string { return "replay/" + r.name }

// Demand implements Workload.
func (r *Replay) Demand() Demand {
	if r.Done() {
		return Demand{}
	}
	i := r.tick
	if r.loop {
		i %= int64(len(r.demands))
	}
	r.tick++
	return r.demands[i]
}

// Advance implements Workload: the replay is time-driven, so completed work
// is informational; completion is determined by trace exhaustion.
func (r *Replay) Advance(float64) bool { return r.Done() }

// Done implements Workload.
func (r *Replay) Done() bool {
	return !r.loop && r.tick >= int64(len(r.demands))
}

// TotalWork implements Workload (a replay has no work metric).
func (r *Replay) TotalWork() float64 { return 0 }

// Reset implements Workload.
func (r *Replay) Reset(uint64) { r.tick = 0 }

// Len returns the trace length in ticks.
func (r *Replay) Len() int { return len(r.demands) }

// WriteDemandsCSV emits a demand trace as threads,activity,memfrac rows.
func WriteDemandsCSV(w io.Writer, demands []Demand) error {
	cw := csv.NewWriter(w)
	defer cw.Flush()
	for _, d := range demands {
		err := cw.Write([]string{
			strconv.Itoa(d.Threads),
			strconv.FormatFloat(d.Activity, 'g', 6, 64),
			strconv.FormatFloat(d.MemFrac, 'g', 6, 64),
		})
		if err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadDemandsCSV parses a demand trace written by WriteDemandsCSV.
func ReadDemandsCSV(r io.Reader) ([]Demand, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 3
	var out []Demand
	for line := 1; ; line++ {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		threads, err := strconv.Atoi(row[0])
		if err != nil {
			return nil, fmt.Errorf("workload: line %d threads: %w", line, err)
		}
		act, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			return nil, fmt.Errorf("workload: line %d activity: %w", line, err)
		}
		mem, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			return nil, fmt.Errorf("workload: line %d memfrac: %w", line, err)
		}
		if threads < 0 || act < 0 || act > 2 || mem < 0 || mem > 1 {
			return nil, fmt.Errorf("workload: line %d values out of range", line)
		}
		out = append(out, Demand{Threads: threads, Activity: act, MemFrac: mem})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("workload: empty demand trace")
	}
	return out, nil
}
