package fleet

import (
	"math"
	"strconv"
	"testing"
)

// FuzzAppendFixed checks appendFixed against strconv for any bit pattern
// and any precision WriteCSV uses. The seeds are decimal ties and
// near-ties, values whose rounding carries into a new digit, and the
// edges of the integer path's range and of the float64 encoding.
func FuzzAppendFixed(f *testing.F) {
	seeds := []float64{
		0.0005, 0.0015, 0.0625, 1.0005, 2.675, // ties and near-ties
		9.9995, 99.9996, 999.99951, // carries
		0, math.Copysign(0, -1),
		0x1p-11, math.Nextafter(0x1p-11, 0),
		0x1p52, math.Nextafter(0x1p52, 0),
		math.SmallestNonzeroFloat64, math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	for _, v := range seeds {
		for prec := range uint8(4) {
			f.Add(math.Float64bits(v), prec)
		}
	}
	f.Fuzz(func(t *testing.T, bits uint64, prec uint8) {
		v, p := math.Float64frombits(bits), int(prec%4)
		got := appendFixed([]byte("x"), v, p)
		want := strconv.AppendFloat([]byte("x"), v, 'f', p, 64)
		if string(got) != string(want) {
			t.Fatalf("appendFixed(%#016x = %v, %d) = %q, want %q", bits, v, p, got, want)
		}
	})
}
