// Package trace is a golden-test fixture for the writer cones of
// detwallclock and detrand: its import path ends in internal/trace, so its
// exported Write* functions are serialization roots.
package trace

import (
	"math/rand" //nolint:maya/detrand fixture: a suppressed use that the writer cone still traces
	"time"
)

// stamp is host-overhead accounting, blessed and clean on its own.
//
//maya:wallclock fixture: blessed accounting
func stamp() int64 { return time.Now().UnixNano() }

// jitter uses math/rand under the import's suppression.
func jitter() int { return rand.Intn(3) }

// WriteRecord reaches both through one call edge each.
func WriteRecord(buf []byte) []byte {
	buf = append(buf, byte(stamp()))   // want "trace/flight writer WriteRecord reaches a //maya:wallclock-blessed read time.Now at .*trace/a.go:14 .*WriteRecord → .*stamp."
	return append(buf, byte(jitter())) // want "trace/flight writer WriteRecord reaches a math/rand use at .*trace/a.go:17 .*WriteRecord → .*jitter."
}

// WriteStamped reads the blessed clock in its own body.
func WriteStamped(buf []byte) []byte {
	now := time.Now() //maya:wallclock fixture: blessed, but inside a writer // want "trace/flight writer WriteStamped contains a //maya:wallclock-blessed read time.Now"
	return append(buf, byte(now.Unix()))
}
