package trace

// Binary columnar dataset container ("MAYT"), the storage format behind the
// experiment cache and the million-trace sweeps. CSV/JSON round-trip every
// sample through decimal strings — the dominant cost when datasets reach
// paper scale — while this format stores columns of fixed-width or
// varint-packed values and verifies integrity before parsing.
//
// Format spec, version 1. All fixed-width integers are little-endian;
// "uvarint"/"svarint" are encoding/binary's unsigned LEB128 and its zigzag
// signed form.
//
//	offset  field
//	0       magic "MAYT" (4 bytes)
//	4       version, uint16 (= 1)
//	6       reserved, uint16 (= 0)
//
//	body — one block per column, in order:
//	  uvarint classCount
//	  classCount × { uvarint nameLen, name bytes }     class-name column
//	  uvarint traceCount
//	  traceCount × uvarint                             label column
//	  traceCount × uint64 (IEEE-754 bits)              period_ms column
//	  traceCount × { nameRef }                         trace-name column
//	  traceCount × uvarint                             sample-count column
//	  traceCount × { encoding byte, payload }          sample vectors
//
//	nameRef: 0x00 when the trace name equals its class name (the common
//	case, 1 byte); 0x01 followed by { uvarint len, bytes } for an explicit
//	name, preserving datasets whose row names diverge from the class table.
//
//	sample-vector encodings:
//	  0x00 raw       n × uint64 IEEE-754 bits — any float64, including
//	                 NaN/Inf from fault-injection sweeps, round-trips
//	                 bit-exactly.
//	  0x01 quantized uint64 quantum bits q, then n × svarint of the delta
//	                 d_i = k_i − k_{i−1} (k_{−1} = 0) where sample_i = k_i·q
//	                 exactly. Quantized power (RAPL energy units, the
//	                 attacker's 10-level quantizer) takes small steps between
//	                 few levels, so deltas pack into 1–2 bytes instead of 8.
//
//	footer:
//	  SHA-256 over everything before it (header + body), 32 bytes.
//
// The writer picks the encoding per trace: quantized when a quantum exists
// that reproduces every sample exactly AND the packed form is smaller than
// raw; raw otherwise. The reader therefore needs no options, and
// WriteBinary→ReadBinary is an exact round trip for every dataset. The
// digest is checked before any column is parsed, so truncated or bit-flipped
// files fail loudly instead of yielding plausible traces.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

const (
	binaryMagic   = "MAYT"
	binaryVersion = 1

	encRaw       = 0x00
	encQuantized = 0x01

	nameRefClass    = 0x00
	nameRefExplicit = 0x01

	binaryHeaderLen = 8
	binaryDigestLen = sha256.Size
)

// maxQuantizedStep bounds |k_i| so k·q is computed exactly: above 2^53
// float64 cannot represent every integer and the round trip would silently
// lose the low bits.
const maxQuantizedStep = 1 << 53

// WriteBinary emits the dataset in the MAYT columnar format (see the format
// spec above). The output is a pure function of the dataset contents — no
// timestamps, no host identity — so identical datasets produce identical
// bytes and the files themselves can be content-addressed.
func (d *Dataset) WriteBinary(w io.Writer) error {
	buf := make([]byte, 0, binaryHeaderLen+16*len(d.Traces))
	buf = append(buf, binaryMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, binaryVersion)
	buf = binary.LittleEndian.AppendUint16(buf, 0)

	buf = binary.AppendUvarint(buf, uint64(len(d.ClassNames)))
	for _, name := range d.ClassNames {
		buf = binary.AppendUvarint(buf, uint64(len(name)))
		buf = append(buf, name...)
	}
	buf = binary.AppendUvarint(buf, uint64(len(d.Traces)))
	for _, tr := range d.Traces {
		if tr.Label < 0 {
			return fmt.Errorf("trace: negative label %d cannot be encoded", tr.Label)
		}
		buf = binary.AppendUvarint(buf, uint64(tr.Label))
	}
	for _, tr := range d.Traces {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(tr.PeriodMS))
	}
	for _, tr := range d.Traces {
		if tr.Label < len(d.ClassNames) && tr.Name == d.ClassNames[tr.Label] {
			buf = append(buf, nameRefClass)
			continue
		}
		buf = append(buf, nameRefExplicit)
		buf = binary.AppendUvarint(buf, uint64(len(tr.Name)))
		buf = append(buf, tr.Name...)
	}
	for _, tr := range d.Traces {
		buf = binary.AppendUvarint(buf, uint64(len(tr.Samples)))
	}
	var scratch []byte
	for _, tr := range d.Traces {
		var ok bool
		scratch, ok = appendQuantized(scratch[:0], tr.Samples)
		if ok && len(scratch) < 8*len(tr.Samples) {
			buf = append(buf, encQuantized)
			buf = append(buf, scratch...)
			continue
		}
		buf = append(buf, encRaw)
		for _, v := range tr.Samples {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}

	sum := sha256.Sum256(buf)
	buf = append(buf, sum[:]...)
	_, err := w.Write(buf)
	return err
}

// appendQuantized appends the quantized-delta payload (quantum + svarint
// deltas) for samples, or reports !ok when no quantum reproduces every
// sample exactly. The candidate quantum is the smallest nonzero step between
// consecutive samples — for genuinely quantized data every step is a
// multiple of the quantizer's unit, so the smallest one is the unit itself
// (or a multiple that still reproduces the values exactly, which is just as
// good).
func appendQuantized(dst []byte, samples []float64) ([]byte, bool) {
	if len(samples) == 0 {
		return dst, false
	}
	q := 0.0
	for i := 1; i < len(samples); i++ {
		step := math.Abs(samples[i] - samples[i-1])
		if step > 0 && (q == 0 || step < q) {
			q = step
		}
	}
	if q == 0 {
		// Constant trace: use the value itself as the quantum (k_i = 1),
		// or 1 for the all-zero trace (k_i = 0).
		q = math.Abs(samples[0])
		if q == 0 {
			q = 1
		}
	}
	if math.IsNaN(q) || math.IsInf(q, 0) {
		return dst, false
	}
	prev := int64(0)
	for _, v := range samples {
		k := math.Round(v / q)
		if math.IsNaN(k) || math.Abs(k) > maxQuantizedStep {
			return dst, false
		}
		if k*q != v { //nolint:maya/floateq exactness test is the encoding's correctness criterion
			return dst, false
		}
		if len(dst) == 0 {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(q))
		}
		ki := int64(k)
		dst = binary.AppendVarint(dst, ki-prev)
		prev = ki
	}
	return dst, true
}

// binReader is a bounds-checked cursor over the verified body bytes.
type binReader struct {
	data []byte
	pos  int
}

func (r *binReader) remaining() int { return len(r.data) - r.pos }

func (r *binReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("trace: truncated or malformed uvarint at offset %d", r.pos)
	}
	r.pos += n
	return v, nil
}

func (r *binReader) varint() (int64, error) {
	v, n := binary.Varint(r.data[r.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("trace: truncated or malformed svarint at offset %d", r.pos)
	}
	r.pos += n
	return v, nil
}

func (r *binReader) u64() (uint64, error) {
	if r.remaining() < 8 {
		return 0, fmt.Errorf("trace: truncated u64 at offset %d", r.pos)
	}
	v := binary.LittleEndian.Uint64(r.data[r.pos:])
	r.pos += 8
	return v, nil
}

func (r *binReader) str() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(r.remaining()) {
		return "", fmt.Errorf("trace: string length %d exceeds remaining %d bytes", n, r.remaining())
	}
	s := string(r.data[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return s, nil
}

// count reads a uvarint element count and sanity-checks it against the
// bytes actually present (minBytes per element), so corrupt counts fail
// with an error instead of an enormous allocation.
func (r *binReader) count(what string, minBytes int) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(r.remaining()/minBytes) {
		return 0, fmt.Errorf("trace: %s count %d exceeds input size", what, v)
	}
	return int(v), nil
}

// readAll is io.ReadAll, except that a reader reporting its unread length
// (*bytes.Reader, *bytes.Buffer, *strings.Reader) is read into one buffer
// of that size instead of one grown from 512 bytes. The length is a hint
// only: it still reads to EOF.
func readAll(rd io.Reader) ([]byte, error) {
	lr, ok := rd.(interface{ Len() int })
	if !ok {
		return io.ReadAll(rd)
	}
	var b bytes.Buffer
	b.Grow(max(lr.Len(), 0) + bytes.MinRead) // the EOF read needs MinRead free
	_, err := b.ReadFrom(rd)
	return b.Bytes(), err
}

// ReadBinary parses a dataset written by WriteBinary. The SHA-256 footer is
// verified over the full header+body before any field is decoded, so any
// truncation or bit flip — including in the digest itself — is detected.
func ReadBinary(rd io.Reader) (*Dataset, error) {
	data, err := readAll(rd)
	if err != nil {
		return nil, err
	}
	if len(data) < binaryHeaderLen+binaryDigestLen {
		return nil, fmt.Errorf("trace: binary input too short (%d bytes)", len(data))
	}
	if string(data[:4]) != binaryMagic {
		return nil, fmt.Errorf("trace: bad magic %q (not a MAYT file)", data[:4])
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != binaryVersion {
		return nil, fmt.Errorf("trace: unsupported MAYT version %d (have %d)", v, binaryVersion)
	}
	body, digest := data[:len(data)-binaryDigestLen], data[len(data)-binaryDigestLen:]
	if sum := sha256.Sum256(body); !bytes.Equal(sum[:], digest) {
		return nil, fmt.Errorf("trace: integrity check failed (file truncated or corrupted)")
	}

	r := &binReader{data: body, pos: binaryHeaderLen}
	nClasses, err := r.count("class", 1)
	if err != nil {
		return nil, err
	}
	d := &Dataset{ClassNames: make([]string, nClasses)}
	for i := range d.ClassNames {
		if d.ClassNames[i], err = r.str(); err != nil {
			return nil, err
		}
	}
	nTraces, err := r.count("trace", 1)
	if err != nil {
		return nil, err
	}
	d.Traces = make([]Trace, nTraces)
	for i := range d.Traces {
		label, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if label > uint64(math.MaxInt32) {
			return nil, fmt.Errorf("trace: label %d out of range", label)
		}
		d.Traces[i].Label = int(label)
	}
	for i := range d.Traces {
		bits, err := r.u64()
		if err != nil {
			return nil, err
		}
		d.Traces[i].PeriodMS = math.Float64frombits(bits)
	}
	for i := range d.Traces {
		if r.remaining() < 1 {
			return nil, fmt.Errorf("trace: truncated name column at trace %d", i)
		}
		ref := r.data[r.pos]
		r.pos++
		switch ref {
		case nameRefClass:
			if d.Traces[i].Label >= nClasses {
				return nil, fmt.Errorf("trace: trace %d references class name for out-of-range label %d", i, d.Traces[i].Label)
			}
			d.Traces[i].Name = d.ClassNames[d.Traces[i].Label]
		case nameRefExplicit:
			if d.Traces[i].Name, err = r.str(); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("trace: unknown name ref 0x%02x at trace %d", ref, i)
		}
	}
	lengths := make([]int, nTraces)
	for i := range lengths {
		n, err := r.count(fmt.Sprintf("sample (trace %d)", i), 1)
		if err != nil {
			return nil, err
		}
		lengths[i] = n
	}
	for i := range d.Traces {
		if r.remaining() < 1 {
			return nil, fmt.Errorf("trace: truncated sample block at trace %d", i)
		}
		enc := r.data[r.pos]
		r.pos++
		samples := make([]float64, lengths[i])
		switch enc {
		case encRaw:
			for j := range samples {
				bits, err := r.u64()
				if err != nil {
					return nil, err
				}
				samples[j] = math.Float64frombits(bits)
			}
		case encQuantized:
			bits, err := r.u64()
			if err != nil {
				return nil, err
			}
			q := math.Float64frombits(bits)
			k := int64(0)
			for j := range samples {
				delta, err := r.varint()
				if err != nil {
					return nil, err
				}
				k += delta
				samples[j] = float64(k) * q
			}
		default:
			return nil, fmt.Errorf("trace: unknown sample encoding 0x%02x at trace %d", enc, i)
		}
		d.Traces[i].Samples = samples
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("trace: %d trailing bytes after the last column", r.remaining())
	}
	return d, nil
}
