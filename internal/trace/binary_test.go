package trace

import (
	"bytes"
	"io"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"github.com/maya-defense/maya/internal/rng"
)

// binaryDataset builds a dataset exercising every encoding path: quantized
// traces (exact multiples of a binary-exact quantum), smooth traces (raw
// encoding), NaN/Inf samples (fault-injected readings), empty traces,
// divergent row names, and an unused class.
func binaryDataset() *Dataset {
	st := rng.New(7)
	d := &Dataset{ClassNames: []string{"app-a", "app-b", "unused", "app-d"}}
	// Quantized: levels are multiples of 0.125 (exact in binary).
	for t := 0; t < 3; t++ {
		samples := make([]float64, 400)
		for i := range samples {
			samples[i] = 20 + 0.125*float64(st.Intn(80))
		}
		d.Add(0, 20, samples)
	}
	// Smooth: full-precision floats, raw encoding.
	for t := 0; t < 3; t++ {
		samples := make([]float64, 400)
		for i := range samples {
			samples[i] = 35 + 5*math.Sin(float64(i)/9) + st.Float64()
		}
		d.Add(1, 20, samples)
	}
	// Non-finite values from fault sweeps.
	d.Add(3, 50, []float64{1, math.NaN(), math.Inf(1), math.Inf(-1), 0})
	// Empty and constant traces.
	d.Add(3, 50, nil)
	d.Add(3, 50, []float64{42.5, 42.5, 42.5})
	d.Add(3, 50, []float64{0, 0, 0, 0})
	// A row whose name diverges from the class table (CSV files allow it).
	d.Traces = append(d.Traces, Trace{Label: 0, Name: "renamed", PeriodMS: 20, Samples: []float64{1, 2, 3}})
	return d
}

// datasetsEqual compares datasets treating NaN as equal to itself (the
// round-trip contract is bit-exactness, which reflect.DeepEqual rejects for
// NaN).
func datasetsEqual(a, b *Dataset) bool {
	if !reflect.DeepEqual(a.ClassNames, b.ClassNames) || len(a.Traces) != len(b.Traces) {
		return false
	}
	for i := range a.Traces {
		ta, tb := a.Traces[i], b.Traces[i]
		if ta.Label != tb.Label || ta.Name != tb.Name ||
			math.Float64bits(ta.PeriodMS) != math.Float64bits(tb.PeriodMS) ||
			len(ta.Samples) != len(tb.Samples) {
			return false
		}
		for j := range ta.Samples {
			if math.Float64bits(ta.Samples[j]) != math.Float64bits(tb.Samples[j]) {
				return false
			}
		}
	}
	return true
}

func TestBinaryRoundTripExact(t *testing.T) {
	d := binaryDataset()
	var buf bytes.Buffer
	if err := d.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !datasetsEqual(d, got) {
		t.Fatal("binary round trip is not exact")
	}
	// Zero-length samples decode as non-nil empty or nil; normalize check:
	// the Add(nil) trace must stay empty.
	if n := len(got.Traces[7].Samples); n != 0 {
		t.Fatalf("empty trace decoded with %d samples", n)
	}
}

// TestReadBinaryLengthHint pins that sizing the buffer from a reader's
// Len changes nothing: a bytes.Reader, a bytes.Buffer, a strings.Reader,
// a plain io.Reader and a one-byte reader decode the same dataset, a
// truncated blob fails the same way through each, and a Len that
// understates or overstates the data is only a hint.
func TestReadBinaryLengthHint(t *testing.T) {
	var buf bytes.Buffer
	if err := binaryDataset().WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	readers := func(b []byte) map[string]io.Reader {
		return map[string]io.Reader{
			"bytes.Reader":   bytes.NewReader(b),
			"bytes.Buffer":   bytes.NewBuffer(append([]byte(nil), b...)),
			"strings.Reader": strings.NewReader(string(b)),
			"io.Reader":      struct{ io.Reader }{bytes.NewReader(b)},
			"one byte":       iotest.OneByteReader(bytes.NewReader(b)),
			"short hint":     lenHint{bytes.NewReader(b), 1},
			"long hint":      lenHint{bytes.NewReader(b), 3 * len(b)},
		}
	}
	want, err := ReadBinary(struct{ io.Reader }{bytes.NewReader(blob)})
	if err != nil {
		t.Fatal(err)
	}
	for name, rd := range readers(blob) {
		got, err := ReadBinary(rd)
		if err != nil || !datasetsEqual(got, want) {
			t.Errorf("%s: decoded a different dataset (err %v)", name, err)
		}
	}
	short := blob[:len(blob)-5]
	_, wantErr := ReadBinary(struct{ io.Reader }{bytes.NewReader(short)})
	for name, rd := range readers(short) {
		if _, err := ReadBinary(rd); err == nil || err.Error() != wantErr.Error() {
			t.Errorf("%s: truncated blob gave error %v, want %v", name, err, wantErr)
		}
	}
}

// lenHint is a reader whose Len reports n whatever it holds.
type lenHint struct {
	io.Reader
	n int
}

func (l lenHint) Len() int { return l.n }

func TestBinaryDeterministicBytes(t *testing.T) {
	d := binaryDataset()
	var a, b bytes.Buffer
	if err := d.WriteBinary(&a); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteBinary(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two encodes of one dataset differ (format must be content-addressable)")
	}
}

func TestBinaryQuantizedCompresses(t *testing.T) {
	// A RAPL-quantized-shaped trace must take far less than 8 bytes/sample.
	d := &Dataset{ClassNames: []string{"a"}}
	st := rng.New(3)
	samples := make([]float64, 10000)
	for i := range samples {
		samples[i] = 0.125 * float64(160+st.Intn(16))
	}
	d.Add(0, 20, samples)
	var buf bytes.Buffer
	if err := d.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() > len(samples)*3 {
		t.Fatalf("quantized trace encoded to %d bytes (%.1f B/sample); delta+varint not engaged",
			buf.Len(), float64(buf.Len())/float64(len(samples)))
	}
	got, err := ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !datasetsEqual(d, got) {
		t.Fatal("quantized round trip is not exact")
	}
}

// TestBinaryDetectsEveryCorruption flips every byte and tries every
// truncation of a small valid file: each must produce an error, never a
// silently wrong dataset.
func TestBinaryDetectsEveryCorruption(t *testing.T) {
	d := &Dataset{ClassNames: []string{"a", "b"}}
	d.Add(0, 20, []float64{1, 2, 3, 2.5})
	d.Add(1, 50, []float64{9.25, 9.25, 9.5})
	var buf bytes.Buffer
	if err := d.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()

	for i := range blob {
		mut := append([]byte(nil), blob...)
		mut[i] ^= 0x41
		if _, err := ReadBinary(bytes.NewReader(mut)); err == nil {
			t.Fatalf("bit flip at byte %d of %d went undetected", i, len(blob))
		}
	}
	for n := 0; n < len(blob); n++ {
		if _, err := ReadBinary(bytes.NewReader(blob[:n])); err == nil {
			t.Fatalf("truncation to %d of %d bytes went undetected", n, len(blob))
		}
	}
}

// TestCrossFormatRoundTrip is the property test: a dataset that survives
// CSV's 8-significant-digit formatting must convert among CSV, JSON, and
// binary with full equality in every direction.
func TestCrossFormatRoundTrip(t *testing.T) {
	st := rng.New(11)
	d := &Dataset{ClassNames: []string{"x", "y", "z"}}
	for c := 0; c < 3; c++ {
		for r := 0; r < 4; r++ {
			samples := make([]float64, 200)
			for i := range samples {
				// Multiples of 0.25 below 256: at most 6 significant
				// decimal digits, exact through CSV's %.8g.
				samples[i] = 0.25 * float64(st.Intn(1024))
			}
			d.Add(c, 20, samples)
		}
	}

	var csvBuf bytes.Buffer
	if err := d.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	fromCSV, err := ReadCSV(bytes.NewReader(csvBuf.Bytes()), d.ClassNames)
	if err != nil {
		t.Fatal(err)
	}
	if !datasetsEqual(d, fromCSV) {
		t.Fatal("test premise broken: dataset not CSV-exact")
	}

	var binBuf bytes.Buffer
	if err := fromCSV.WriteBinary(&binBuf); err != nil {
		t.Fatal(err)
	}
	fromBin, err := ReadBinary(bytes.NewReader(binBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !datasetsEqual(fromCSV, fromBin) {
		t.Fatal("CSV -> binary round trip diverged")
	}

	var jsonBuf bytes.Buffer
	if err := fromBin.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	fromJSON, err := ReadJSON(bytes.NewReader(jsonBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !datasetsEqual(fromBin, fromJSON) {
		t.Fatal("binary -> JSON round trip diverged")
	}
	if !datasetsEqual(d, fromJSON) {
		t.Fatal("full CSV -> binary -> JSON chain diverged from the original")
	}
}

func TestReadCSVInfer(t *testing.T) {
	d := &Dataset{ClassNames: []string{"alpha", "beta", "class2", "delta"}}
	d.Add(0, 20, []float64{1, 2})
	d.Add(1, 20, []float64{3, 4})
	d.Add(3, 50, []float64{5})
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSVInfer(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// Label 2 never occurs; the inferred table fills the gap.
	if !reflect.DeepEqual(got.ClassNames, []string{"alpha", "beta", "class2", "delta"}) {
		t.Fatalf("inferred class table %v", got.ClassNames)
	}
	if !datasetsEqual(d, got) {
		t.Fatal("infer round trip diverged")
	}

	if _, err := ReadCSVInfer(bytes.NewReader([]byte("0,a,20,1\n0,b,20,2\n"))); err == nil {
		t.Fatal("conflicting names for one label were accepted")
	}
}

func TestDatasetFileShim(t *testing.T) {
	// CSV inference needs consistent row names and JSON rejects NaN, so the
	// file-shim test uses a dataset valid in all three formats.
	d := &Dataset{ClassNames: []string{"alpha", "beta"}}
	d.Add(0, 20, []float64{1, 2, 3.5})
	d.Add(1, 50, []float64{0.25, 0.5})
	d.Add(1, 50, nil)
	dir := t.TempDir()
	for _, name := range []string{"d.csv", "d.json", "d.bin", "d.mayt"} {
		path := filepath.Join(dir, name)
		if err := WriteDatasetFile(path, d); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := ReadDatasetFile(path, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got.Traces) != len(d.Traces) {
			t.Fatalf("%s: trace count %d -> %d", name, len(d.Traces), len(got.Traces))
		}
	}
	if _, err := FormatForPath("dataset.parquet"); err == nil {
		t.Fatal("unknown extension accepted")
	}
}
