package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"strconv"
)

// FlightRecord is one control-loop tick as the flight recorder stores it:
// what the mask asked for, what the sensor measured, what the controller
// commanded, and what the actuators actually applied. Every field is
// simulated-domain data, so a flight trace is deterministic for a fixed
// seed and can be diffed across runs.
type FlightRecord struct {
	// Step is the control-period index (counting warmup; see
	// sim.RunResult.FirstStep for alignment with recorded samples).
	Step int `json:"step"`
	// TargetW is the full mask target for the period (closed-loop component
	// plus any open-loop high-frequency component).
	TargetW float64 `json:"target_w"`
	// MeasuredW is the defense sensor's reading the controller consumed
	// (zero on the very first step, before any reading exists).
	MeasuredW float64 `json:"measured_w"`
	// ErrorW is the tracking error TargetW − MeasuredW.
	ErrorW float64 `json:"error_w"`
	// U is the commanded normalized input vector [dvfs, idle, balloon]
	// after dither injection, before quantization.
	U [3]float64 `json:"u"`
	// Applied holds the applied physical knob settings [GHz, idle fraction,
	// balloon duty] after quantization.
	Applied [3]float64 `json:"applied"`
	// Saturated reports that the controller clipped at least one raw input
	// to [0,1] this step (actuator authority limit).
	Saturated bool `json:"saturated,omitempty"`
	// Clipped flags, per knob, that the commanded normalized value lay
	// outside [0,1] when quantized (quantization-clip event).
	Clipped [3]bool `json:"clipped,omitempty"`
	// StateNorm is the L2 norm of the controller's internal state.
	StateNorm float64 `json:"state_norm"`
	// Rejected marks a step whose raw sensor reading failed the engine's
	// measurement guard (non-finite or implausible) and was replaced by a
	// held value; MeasuredW then holds the substituted reading the
	// controller actually consumed. Absent on nominal traces, so enabling
	// the guard leaves fault-free traces byte-identical.
	Rejected bool `json:"rejected,omitempty"`
	// RawW is the rejected raw reading when it was finite (0 when the raw
	// reading was NaN/±Inf, which JSON cannot carry). Only set alongside
	// Rejected.
	RawW float64 `json:"raw_w,omitempty"`
	// StateReinit marks a step on which the guard re-initialized the
	// controller state (saturation-aware blow-up recovery).
	StateReinit bool `json:"state_reinit,omitempty"`
}

// FlightRecorder keeps the last capacity control-loop records in a ring
// buffer. Record is allocation-free; Flush spills everything not yet
// written to an io.Writer as JSONL, so a caller that flushes often enough
// gets the full trace while an unattended recorder stays bounded.
//
// A recorder belongs to one control loop: Record and Flush must not be
// called concurrently (each engine owns its recorder, like its controller).
type FlightRecorder struct {
	ring []FlightRecord
	// total is the number of records ever appended; the ring holds records
	// [total-len(ring), total).
	total uint64
	// flushed is the count of records already spilled by Flush.
	flushed uint64
	// dropped counts records overwritten before any Flush saw them.
	dropped uint64
}

// DefaultFlightCapacity bounds an unattended recorder: ~82 s of control
// history at the paper's 20 ms period.
const DefaultFlightCapacity = 4096

// NewFlightRecorder returns a recorder holding the last capacity records
// (capacity <= 0 selects DefaultFlightCapacity).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightCapacity
	}
	return &FlightRecorder{ring: make([]FlightRecord, capacity)}
}

// Record appends one tick. It never allocates.
//
//maya:hotpath
func (f *FlightRecorder) Record(r FlightRecord) {
	f.ring[f.total%uint64(len(f.ring))] = r
	f.total++
	if f.total-f.flushed > uint64(len(f.ring)) {
		// The oldest unflushed record was just overwritten.
		f.flushed++
		f.dropped++
	}
}

// Len returns how many records are currently held (≤ capacity).
func (f *FlightRecorder) Len() int {
	if f.total < uint64(len(f.ring)) {
		return int(f.total)
	}
	return len(f.ring)
}

// Total returns how many records were ever appended.
func (f *FlightRecorder) Total() uint64 { return f.total }

// Dropped returns how many records were overwritten before being flushed.
func (f *FlightRecorder) Dropped() uint64 { return f.dropped }

// Reset clears the recorder for a new run (spill accounting included).
func (f *FlightRecorder) Reset() {
	f.total, f.flushed, f.dropped = 0, 0, 0
}

// Snapshot returns the held records in chronological order.
func (f *FlightRecorder) Snapshot() []FlightRecord {
	n := f.Len()
	out := make([]FlightRecord, 0, n)
	for i := f.total - uint64(n); i < f.total; i++ {
		out = append(out, f.ring[i%uint64(len(f.ring))])
	}
	return out
}

// flushChunk is how many bytes of JSONL Flush collects before each write;
// the record that crosses it ends the chunk.
const flushChunk = 64 << 10

// flightRecordMax bounds one record's JSONL line: eleven floats of at most
// 24 characters each, the step, the flags and the keys.
const flightRecordMax = 640

// Flush writes every record not yet spilled to w as JSONL and marks it
// spilled. Call it between runs (or periodically during long ones) to
// capture the full trace beyond the ring's capacity.
//
// Each line is byte for byte what encoding/json's Encoder writes for the
// record (FuzzFlightJSON pins it), appended with strconv instead of
// reflection and written in chunks of about 64 KiB. A record with a NaN or
// ±Inf field fails with the error Encoder returns for it; the records
// before it are written and marked spilled, and it stays unspilled. A
// failed write leaves its chunk's records unspilled.
func (f *FlightRecorder) Flush(w io.Writer) error {
	n := f.total - f.flushed
	if n == 0 {
		return nil
	}
	// A Maya GS record's line is about 260 bytes.
	buf := make([]byte, 0, min(n*256, flushChunk)+flightRecordMax)
	for f.flushed < f.total {
		buf = buf[:0]
		next := f.flushed
		var err error
		for ; next < f.total && len(buf) < flushChunk; next++ {
			r := &f.ring[next%uint64(len(f.ring))]
			if err = r.unsupported(); err != nil {
				break
			}
			buf = appendFlightJSON(buf, r)
		}
		if len(buf) > 0 {
			if _, werr := w.Write(buf); werr != nil {
				return werr
			}
		}
		f.flushed = next
		if err != nil {
			return err
		}
	}
	return nil
}

// appendFlightJSON appends r's JSONL line as encoding/json encodes it: the
// fields in struct order under their tags, the omitempty fields only when
// set (a −0 RawW counts as empty, as it does for encoding/json), and the
// floats in encoding/json's format. r's floats must be finite.
func appendFlightJSON(b []byte, r *FlightRecord) []byte {
	b = append(b, `{"step":`...)
	b = strconv.AppendInt(b, int64(r.Step), 10)
	b = append(b, `,"target_w":`...)
	b = appendJSONFloat(b, r.TargetW)
	b = append(b, `,"measured_w":`...)
	b = appendJSONFloat(b, r.MeasuredW)
	b = append(b, `,"error_w":`...)
	b = appendJSONFloat(b, r.ErrorW)
	b = append(b, `,"u":[`...)
	b = appendJSONFloats(b, &r.U)
	b = append(b, `],"applied":[`...)
	b = appendJSONFloats(b, &r.Applied)
	b = append(b, ']')
	if r.Saturated {
		b = append(b, `,"saturated":true`...)
	}
	// Clipped is an array, which omitempty never omits.
	b = append(b, `,"clipped":[`...)
	for i, c := range r.Clipped {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendBool(b, c)
	}
	b = append(b, `],"state_norm":`...)
	b = appendJSONFloat(b, r.StateNorm)
	if r.Rejected {
		b = append(b, `,"rejected":true`...)
	}
	if r.RawW != 0 {
		b = append(b, `,"raw_w":`...)
		b = appendJSONFloat(b, r.RawW)
	}
	if r.StateReinit {
		b = append(b, `,"state_reinit":true`...)
	}
	return append(b, "}\n"...)
}

func appendJSONFloats(b []byte, xs *[3]float64) []byte {
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONFloat(b, x)
	}
	return b
}

// appendJSONFloat appends a finite x as encoding/json writes a float64:
// the shortest representation that reads back exactly, in 'e' format
// below 1e-6 and from 1e21 in magnitude and with no leading zero in a
// negative exponent (e-7, not e-07), in 'f' format otherwise.
func appendJSONFloat(b []byte, x float64) []byte {
	abs := math.Abs(x)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, x, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// unsupported returns the error encoding/json's Encoder returns for r: a
// *json.UnsupportedValueError for its first NaN or ±Inf float in field
// order, or nil when every float is finite. RawW is checked although it
// is omitempty, because only a zero is omitted.
func (r *FlightRecord) unsupported() error {
	for _, x := range [...]float64{
		r.TargetW, r.MeasuredW, r.ErrorW,
		r.U[0], r.U[1], r.U[2],
		r.Applied[0], r.Applied[1], r.Applied[2],
		r.StateNorm, r.RawW,
	} {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return &json.UnsupportedValueError{Value: reflect.ValueOf(x), Str: strconv.FormatFloat(x, 'g', -1, 64)}
		}
	}
	return nil
}

// maxFlightLine bounds one JSONL line when reading a flight trace back.
const maxFlightLine = 1 << 20

// ReadFlight parses a JSONL flight trace written by Flush. Malformed lines
// are tolerated (a recorder crash mid-write truncates the last line):
// they are skipped and counted, never fatal. The error is non-nil only for
// I/O-level failures.
func ReadFlight(r io.Reader) (recs []FlightRecord, skipped int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 4096), maxFlightLine)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec FlightRecord
		if json.Unmarshal(line, &rec) != nil {
			skipped++
			continue
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return recs, skipped, fmt.Errorf("telemetry: reading flight trace: %w", err)
	}
	return recs, skipped, nil
}
