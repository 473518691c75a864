package control

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"github.com/maya-defense/maya/internal/mat"
)

// controllerJSON is the on-disk form of a synthesized controller: the plant
// model pieces and gains, which fully determine the runtime state machine.
// A deployment can synthesize once, Save, and ship this artifact; the
// runtime loads it without re-running identification.
type controllerJSON struct {
	Version int         `json:"version"`
	N       int         `json:"order"`
	NU      int         `json:"inputs"`
	A       [][]float64 `json:"a"`
	B       [][]float64 `json:"b"`
	C       [][]float64 `json:"c"`
	Kx      [][]float64 `json:"kx"`
	Ku      [][]float64 `json:"ku"`
	Kz      []float64   `json:"kz"`
	Lx      []float64   `json:"lx"`
	Ld      float64     `json:"ld"`
	UMean   []float64   `json:"u_rest"`
	YMean   float64     `json:"y_mean"`
}

// rowsOf splits a row-major slice into rows of cols entries.
func rowsOf(flat []float64, cols int) [][]float64 {
	out := make([][]float64, len(flat)/cols)
	for i := range out {
		out[i] = flat[i*cols : (i+1)*cols]
	}
	return out
}

// Save writes the controller as JSON.
func (k *Controller) Save(w io.Writer) error {
	cj := controllerJSON{
		Version: 1,
		N:       k.n, NU: k.nu,
		A:  rowsOf(k.a, k.n),
		B:  rowsOf(k.b, k.nu),
		C:  rowsOf(k.c, k.n),
		Kx: rowsOf(k.kx, k.n),
		Ku: rowsOf(k.ku, k.nu),
		Kz: k.kz, Lx: k.lx, Ld: k.ld,
		UMean: k.uMean, YMean: k.yMean,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(cj)
}

// Load reads a controller previously written by Save. The returned
// controller starts in the reset state.
func Load(r io.Reader) (*Controller, error) {
	var cj controllerJSON
	if err := json.NewDecoder(r).Decode(&cj); err != nil {
		return nil, fmt.Errorf("control: decode: %w", err)
	}
	if cj.Version != 1 {
		return nil, fmt.Errorf("control: unsupported artifact version %d", cj.Version)
	}
	if cj.N <= 0 || cj.NU <= 0 {
		return nil, errors.New("control: artifact has non-positive dimensions")
	}
	check := func(rows [][]float64, r, c int, name string) error {
		if len(rows) != r {
			return fmt.Errorf("control: %s has %d rows, want %d", name, len(rows), r)
		}
		for _, row := range rows {
			if len(row) != c {
				return fmt.Errorf("control: %s has a row of %d cols, want %d", name, len(row), c)
			}
		}
		return nil
	}
	for _, chk := range []error{
		check(cj.A, cj.N, cj.N, "A"),
		check(cj.B, cj.N, cj.NU, "B"),
		check(cj.C, 1, cj.N, "C"),
		check(cj.Kx, cj.NU, cj.N, "Kx"),
		check(cj.Ku, cj.NU, cj.NU, "Ku"),
	} {
		if chk != nil {
			return nil, chk
		}
	}
	if len(cj.Kz) != cj.NU || len(cj.Lx) != cj.N || len(cj.UMean) != cj.NU {
		return nil, errors.New("control: artifact vector lengths inconsistent")
	}
	flat := func(rows [][]float64) []float64 { return rowMajor(mat.FromRows(rows)) }
	return newController(gains{
		a: flat(cj.A), b: flat(cj.B), c: flat(cj.C),
		kx: flat(cj.Kx), ku: flat(cj.Ku),
		kz:    append([]float64(nil), cj.Kz...),
		lx:    append([]float64(nil), cj.Lx...),
		ld:    cj.Ld,
		uMean: append([]float64(nil), cj.UMean...),
		yMean: cj.YMean,
		n:     cj.N, nu: cj.NU,
	}), nil
}
