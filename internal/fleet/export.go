package fleet

import (
	"bufio"
	"io"
	"math"
	"slices"
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
// can need quoting), but each row is appended into one reused buffer and
// written out in 64 KiB chunks. strconv formats a fixed-precision 'f'
// float with multiprecision decimal arithmetic, so the float columns go
// through appendFixed, which rounds with integer arithmetic instead. A
// normal float with 2⁻¹¹ ≤ |v| < 2⁵² is exactly m/2ˢ with m < 2⁵³ and
// 1 ≤ s ≤ 63, so m·10^prec (prec ≤ 3) fits a uint64: shifting it right by
// s leaves the digits, and the bits shifted out decide the rounding
// exactly, half to even, as strconv rounds the exact binary value. A
// smaller |v|, zero and subnormals included, lies below half of 10⁻³ and
// prints as zero with its sign; |v| ≥ 2⁵², NaN and ±Inf fall back to
// strconv.
func WriteCSV(w io.Writer, results []TenantResult, ids []int) error {
	bw := bufio.NewWriterSize(w, 64<<10)
	if _, err := bw.WriteString("tenant,time_s,power_w,target_w,freq_ghz,idle,balloon\n"); err != nil {
		return err
	}
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
			row = appendFixed(row, float64(j)*0.02, 2)
			row = append(row, ',')
			row = appendFixed(row, p, 3)
			row = append(row, ',')
			if j < len(targets) {
				row = appendFixed(row, targets[j], 3)
			}
			row = append(row, ',')
			if j < len(res.InputTrace) {
				in := res.InputTrace[j]
				row = appendFixed(row, in.FreqGHz, 1)
				row = append(row, ',')
				row = appendFixed(row, in.Idle, 2)
				row = append(row, ',')
				row = appendFixed(row, in.Balloon, 1)
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

// pow10 is 10^prec for the precisions appendFixed formats.
var pow10 = [...]uint64{1, 10, 100, 1000}

// appendFixed appends the bytes of strconv.AppendFloat(dst, v, 'f', prec,
// 64) for prec 0..3, by the integer arithmetic WriteCSV describes.
func appendFixed(dst []byte, v float64, prec int) []byte {
	bits := math.Float64bits(v)
	s := 1075 - int(bits>>52&0x7ff) // |v| = m/2ˢ
	if s < 1 {
		return strconv.AppendFloat(dst, v, 'f', prec, 64)
	}
	var q uint64 // stays 0 for |v| < 2⁻¹¹
	if s <= 63 {
		n := (bits&(1<<52-1) | 1<<52) * pow10[prec]
		r, half := n&(1<<s-1), uint64(1)<<(s-1)
		q = n >> s
		if r > half || r == half && q&1 == 1 {
			q++
		}
	}
	start := len(dst)
	if bits>>63 != 0 {
		dst = append(dst, '-')
		start++
	}
	for d := 0; d <= prec || q > 0; d++ { // digits last to first
		if d == prec && d > 0 {
			dst = append(dst, '.')
		}
		dst = append(dst, byte('0'+q%10))
		q /= 10
	}
	slices.Reverse(dst[start:])
	return dst
}
