package fleet

import (
	"bufio"
	"io"
	"math"
	"strconv"
)

// WriteCSV writes every tenant's per-period trace as one CSV with a
// leading tenant column:
//
//	tenant,time_s,power_w,target_w,freq_ghz,idle,balloon
//
// ids supplies the tenant-column value per result (nil means slice
// positions 0..N-1). The encoding is shared by `mayactl -fleet -csv` and
// cmd/mayad's /traces.csv export — one implementation, so a daemon-served
// trace byte-diffs cleanly against a solo mayactl run.
//
// The bytes are exactly what encoding/csv writes for these rows (no field
// can need quoting), but each row is appended into one reused buffer.
// Fixed-precision strconv formatting is slow, so time_s is formatted once
// per row index and the knob columns once per distinct (quantized) value;
// only power_w and target_w are formatted per row.
func WriteCSV(w io.Writer, results []TenantResult, ids []int) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("tenant,time_s,power_w,target_w,freq_ghz,idle,balloon\n"); err != nil {
		return err
	}
	var times []string // row j's time_s, j·0.02 s to two places
	freq := knobColumn{prec: 1}
	idle := knobColumn{prec: 2}
	balloon := knobColumn{prec: 1}
	var row []byte
	for i, res := range results {
		id := i
		if ids != nil {
			id = ids[i]
		}
		targets := res.Targets
		if res.FirstStep < len(targets) {
			targets = targets[res.FirstStep:]
		}
		for j, p := range res.DefenseSamples {
			row = strconv.AppendInt(row[:0], int64(id), 10)
			row = append(row, ',')
			for len(times) <= j {
				times = append(times, strconv.FormatFloat(float64(len(times))*0.02, 'f', 2, 64))
			}
			row = append(row, times[j]...)
			row = append(row, ',')
			row = strconv.AppendFloat(row, p, 'f', 3, 64)
			row = append(row, ',')
			if j < len(targets) {
				row = strconv.AppendFloat(row, targets[j], 'f', 3, 64)
			}
			row = append(row, ',')
			if j < len(res.InputTrace) {
				in := res.InputTrace[j]
				row = freq.append(row, in.FreqGHz)
				row = append(row, ',')
				row = idle.append(row, in.Idle)
				row = append(row, ',')
				row = balloon.append(row, in.Balloon)
			} else {
				row = append(row, ",,"...)
			}
			row = append(row, '\n')
			if _, err := bw.Write(row); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// maxKnobValues bounds a knobColumn's memo. The actuator ladders have at
// most a few dozen settings, so every quantized value fits; values past
// the bound (inputs that bypassed quantization) are formatted per row.
const maxKnobValues = 256

// knobColumn formats one knob column at prec places, once per distinct
// value.
type knobColumn struct {
	prec int
	memo map[uint64]string // keyed by the value's bits, so −0 and 0 differ
}

func (c *knobColumn) append(dst []byte, v float64) []byte {
	bits := math.Float64bits(v)
	if s, ok := c.memo[bits]; ok {
		return append(dst, s...)
	}
	if len(c.memo) >= maxKnobValues {
		return strconv.AppendFloat(dst, v, 'f', c.prec, 64)
	}
	if c.memo == nil {
		c.memo = make(map[uint64]string)
	}
	s := strconv.FormatFloat(v, 'f', c.prec, 64)
	c.memo[bits] = s
	return append(dst, s...)
}
