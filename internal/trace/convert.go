package trace

// Compatibility shim between the three dataset encodings. The binary MAYT
// format is self-describing; CSV needs a class table, which ReadCSVInfer
// reconstructs from the rows so files written by WriteCSV convert without a
// side channel. `mayactl convert` is the CLI face of this file.

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// ReadCSVInfer parses a dataset written by WriteCSV without an external
// class table: the table is rebuilt from the (label, name) pairs on the
// rows. Every label in 0..max(label) gets a slot; labels that never occur
// are named "class<i>". Two rows giving one label different names is an
// error — the file is ambiguous, not merely sparse.
func ReadCSVInfer(r io.Reader) (*Dataset, error) {
	d := &Dataset{}
	maxLabel := -1
	named := map[int]string{}
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	for {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		tr, err := parseCSVRow(row)
		if err != nil {
			return nil, err
		}
		if tr.Label < 0 {
			return nil, fmt.Errorf("trace: negative label %d", tr.Label)
		}
		if prev, seen := named[tr.Label]; seen && prev != tr.Name {
			return nil, fmt.Errorf("trace: label %d named both %q and %q", tr.Label, prev, tr.Name)
		}
		named[tr.Label] = tr.Name
		if tr.Label > maxLabel {
			maxLabel = tr.Label
		}
		d.Traces = append(d.Traces, tr)
	}
	d.ClassNames = make([]string, maxLabel+1)
	for i := range d.ClassNames {
		if name, ok := named[i]; ok {
			d.ClassNames[i] = name
		} else {
			d.ClassNames[i] = fmt.Sprintf("class%d", i)
		}
	}
	return d, nil
}

// Format names one of the dataset encodings.
type Format string

// The dataset file formats, selected by extension.
const (
	FormatCSV    Format = "csv"
	FormatJSON   Format = "json"
	FormatBinary Format = "binary"
)

// FormatForPath maps a file extension to its dataset format: .csv, .json,
// and .bin/.mayt.
func FormatForPath(path string) (Format, error) {
	switch strings.ToLower(filepath.Ext(path)) {
	case ".csv":
		return FormatCSV, nil
	case ".json":
		return FormatJSON, nil
	case ".bin", ".mayt":
		return FormatBinary, nil
	}
	return "", fmt.Errorf("trace: cannot infer dataset format from %q (want .csv, .json, .bin, or .mayt)", path)
}

// ReadDatasetFile loads a dataset from path in the format its extension
// names. classNames is only consulted for CSV (the other formats are
// self-describing); passing nil infers the table from the rows.
func ReadDatasetFile(path string, classNames []string) (*Dataset, error) {
	format, err := FormatForPath(path)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	switch format {
	case FormatCSV:
		if classNames == nil {
			return ReadCSVInfer(f)
		}
		return ReadCSV(f, classNames)
	case FormatJSON:
		return ReadJSON(f)
	default:
		return ReadBinary(f)
	}
}

// WriteDatasetFile stores a dataset at path in the format its extension
// names.
func WriteDatasetFile(path string, d *Dataset) error {
	format, err := FormatForPath(path)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	switch format {
	case FormatCSV:
		err = d.WriteCSV(f)
	case FormatJSON:
		err = d.WriteJSON(f)
	default:
		err = d.WriteBinary(f)
	}
	if closeErr := f.Close(); err == nil {
		err = closeErr
	}
	return err
}
