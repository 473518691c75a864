package telemetry

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"testing"

	"github.com/maya-defense/maya/internal/rng"
)

// fuzzRecordSize is how many fuzz input bytes make one flight record: the
// step, the bits of its eleven floats, and one byte of flags.
const fuzzRecordSize = 8 + 11*8 + 1

// fuzzFloats returns pointers to r's float fields in struct order.
func fuzzFloats(r *FlightRecord) [11]*float64 {
	return [11]*float64{
		&r.TargetW, &r.MeasuredW, &r.ErrorW,
		&r.U[0], &r.U[1], &r.U[2],
		&r.Applied[0], &r.Applied[1], &r.Applied[2],
		&r.StateNorm, &r.RawW,
	}
}

// decodeFuzzRecords reads one record per fuzzRecordSize bytes of data; a
// trailing partial record is ignored.
func decodeFuzzRecords(data []byte) []FlightRecord {
	var recs []FlightRecord
	for ; len(data) >= fuzzRecordSize; data = data[fuzzRecordSize:] {
		var r FlightRecord
		r.Step = int(int64(binary.LittleEndian.Uint64(data)))
		for i, p := range fuzzFloats(&r) {
			*p = math.Float64frombits(binary.LittleEndian.Uint64(data[8+8*i:]))
		}
		flags := data[fuzzRecordSize-1]
		r.Saturated = flags&1 != 0
		r.Clipped = [3]bool{flags&2 != 0, flags&4 != 0, flags&8 != 0}
		r.Rejected = flags&16 != 0
		r.StateReinit = flags&32 != 0
		recs = append(recs, r)
	}
	return recs
}

// encodeFuzzRecords is decodeFuzzRecords' inverse, for seeds.
func encodeFuzzRecords(recs ...FlightRecord) []byte {
	var data []byte
	for _, r := range recs {
		data = binary.LittleEndian.AppendUint64(data, uint64(int64(r.Step)))
		for _, p := range fuzzFloats(&r) {
			data = binary.LittleEndian.AppendUint64(data, math.Float64bits(*p))
		}
		var flags byte
		for i, set := range [...]bool{r.Saturated, r.Clipped[0], r.Clipped[1], r.Clipped[2], r.Rejected, r.StateReinit} {
			if set {
				flags |= 1 << i
			}
		}
		data = append(data, flags)
	}
	return data
}

// FuzzFlightJSON pins Flush to encoding/json's Encoder record by record:
// the same bytes for every record, and on a NaN or ±Inf field the same
// error text after the same records, with the failed record left
// unspilled.
func FuzzFlightJSON(f *testing.F) {
	nominal := rec(3)
	f.Add(encodeFuzzRecords(nominal, rec(4), rec(5)))
	all := FlightRecord{Step: -7, Saturated: true, Clipped: [3]bool{true, true, true}, Rejected: true, StateReinit: true}
	for i, p := range fuzzFloats(&all) {
		*p = float64(i) + 0.1
	}
	f.Add(encodeFuzzRecords(all))
	negZero := math.Copysign(0, -1)
	for _, x := range []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), negZero, 0,
		5e-324, math.Float64frombits(0x000fffffffffffff), math.SmallestNonzeroFloat64 * 3, // subnormals
		1e-6, math.Nextafter(1e-6, 0), -math.Nextafter(1e-6, 0), 1e-7, 1e-9, 1.5e-10, 1e-100,
		1e21, math.Nextafter(1e21, 0), -1e21, 1e22, 1.5e300, math.MaxFloat64,
		0.30000000000000004, 123456789.125, -2.5,
	} {
		for field := range 11 {
			r := nominal
			*fuzzFloats(&r)[field] = x
			f.Add(encodeFuzzRecords(nominal, r, nominal))
		}
	}
	// Two different non-finite fields: the error names the first in field
	// order.
	for field := range 10 {
		r := nominal
		*fuzzFloats(&r)[field], *fuzzFloats(&r)[field+1] = math.Inf(-1), math.NaN()
		f.Add(encodeFuzzRecords(r))
		*fuzzFloats(&r)[field], *fuzzFloats(&r)[field+1] = math.NaN(), math.Inf(1)
		f.Add(encodeFuzzRecords(r))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs := decodeFuzzRecords(data)
		fr := NewFlightRecorder(len(recs) + 1)
		for _, r := range recs {
			fr.Record(r)
		}
		var got bytes.Buffer
		gotErr := fr.Flush(&got)

		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		var wantErr error
		encoded := 0
		for _, r := range recs {
			if wantErr = enc.Encode(r); wantErr != nil {
				break
			}
			encoded++
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			gotLines := bytes.SplitAfter(got.Bytes(), []byte("\n"))
			wantLines := bytes.SplitAfter(want.Bytes(), []byte("\n"))
			for i := range max(len(gotLines), len(wantLines)) {
				var g, w []byte
				if i < len(gotLines) {
					g = gotLines[i]
				}
				if i < len(wantLines) {
					w = wantLines[i]
				}
				if !bytes.Equal(g, w) {
					t.Fatalf("record %d: Flush wrote\n%q\nencoding/json writes\n%q", i, g, w)
				}
			}
		}
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("Flush returned %v, encoding/json %v", gotErr, wantErr)
		}
		if fr.flushed != uint64(encoded) {
			t.Fatalf("Flush marked %d records spilled, want %d", fr.flushed, encoded)
		}
		if wantErr == nil {
			return
		}
		var uve *json.UnsupportedValueError
		if !errors.As(gotErr, &uve) {
			t.Fatalf("Flush returned %T, want *json.UnsupportedValueError", gotErr)
		}
		// The failed record stays unspilled: flushing again fails on it
		// without writing.
		got.Reset()
		if err := fr.Flush(&got); err == nil || err.Error() != wantErr.Error() || got.Len() != 0 {
			t.Fatalf("second Flush returned %v after writing %d bytes, want %v and none", err, got.Len(), wantErr)
		}
	})
}

// TestFlushWritesInChunks checks that a flush longer than one chunk
// writes every record once, in order, in chunks of about flushChunk bytes.
func TestFlushWritesInChunks(t *testing.T) {
	recs := benchFlight(4 * flushChunk / 200)
	fr := NewFlightRecorder(len(recs))
	for _, r := range recs {
		fr.Record(r)
	}
	w := &countingWriter{}
	if err := fr.Flush(w); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(w.buf.Bytes(), want.Bytes()) {
		t.Fatal("chunked Flush differs from encoding/json")
	}
	if lo, hi := want.Len()/(flushChunk+flightRecordMax), want.Len()/flushChunk+1; w.writes < lo || w.writes > hi {
		t.Fatalf("Flush made %d writes of %d bytes, want %d to %d", w.writes, want.Len(), lo, hi)
	}
}

type countingWriter struct {
	buf    bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.buf.Write(p)
}

// benchFlight returns n records shaped like a Maya GS flight: full-width
// watts and commands, quantized knob settings, and occasional saturation
// and clipping.
func benchFlight(n int) []FlightRecord {
	r := rng.NewNamed(1, "telemetry/flight-bench")
	recs := make([]FlightRecord, n)
	for i := range recs {
		target := r.Uniform(10, 25)
		measured := target + r.Normal(0, 1.5)
		u := [3]float64{r.Uniform(-0.05, 1.05), r.Uniform(-0.05, 0.6), r.Uniform(0, 1)}
		recs[i] = FlightRecord{
			Step:      i,
			TargetW:   target,
			MeasuredW: measured,
			ErrorW:    target - measured,
			U:         u,
			Applied:   [3]float64{1 + 0.1*float64(r.Intn(11)), 0.04 * float64(r.Intn(13)), 0.1 * float64(r.Intn(11))},
			Saturated: r.Bool(0.3),
			Clipped:   [3]bool{u[0] < 0 || u[0] > 1, u[1] < 0, false},
			StateNorm: r.Uniform(0, 12),
		}
	}
	return recs
}

// BenchmarkFlightFlush spills a 608-record flight, the length of a
// 12-second Maya GS tenant's, through Flush and, for reference, through
// encoding/json's Encoder.
func BenchmarkFlightFlush(b *testing.B) {
	recs := benchFlight(608)
	var buf bytes.Buffer
	b.Run("Flush", func(b *testing.B) {
		fr := NewFlightRecorder(len(recs))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fr.Reset()
			for _, r := range recs {
				fr.Record(r)
			}
			buf.Reset()
			if err := fr.Flush(&buf); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(buf.Len()))
	})
	b.Run("Encoder", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			enc := json.NewEncoder(&buf)
			for _, r := range recs {
				if err := enc.Encode(r); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.SetBytes(int64(buf.Len()))
	})
}
