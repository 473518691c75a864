// Package maprange is a golden-test fixture for order-sensitive work
// inside map ranges.
package maprange

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"github.com/maya-defense/maya/internal/telemetry"
)

func badAppend(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want "append inside a map range builds a slice in randomized order"
	}
	return keys
}

// goodSorted is the canonical collect-then-sort idiom; the append is
// blessed by the sort call later in the same block.
func goodSorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func badPrint(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v) // want "call to fmt.Println inside a map range happens in randomized order"
	}
}

func badWrites(m map[string]int, buf *bytes.Buffer) {
	for k := range m {
		buf.WriteString(k)      // want "method WriteString call inside a map range"
		b, _ := json.Marshal(k) // want "json.Marshal inside a map range"
		_ = b
	}
}

func badTelemetry(m map[string]int, c *telemetry.Counter) {
	for range m {
		c.Inc() // want "telemetry Inc call inside a map range"
	}
}

// floatSum looks order-insensitive, but float addition is not associative:
// the sum's low bits follow the randomized iteration order.
func floatSum(m map[string]float64) float64 {
	total := 0.0
	for _, v := range m {
		total += v // want "float \+= inside a map range accumulates in randomized order"
	}
	return total
}

// goodSum is exact in any order and must not be flagged, and neither must
// arithmetic on a per-iteration variable.
func goodSum(m map[string]int) (int, float64) {
	total, peak := 0, 0.0
	for _, v := range m {
		total += v
		scaled := float64(v)
		scaled *= 2
		peak = max(peak, scaled)
	}
	return total, peak
}
