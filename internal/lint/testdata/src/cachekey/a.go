// Package cachekey is a golden-test fixture for the cachekey analyzer:
// stricter determinism rules inside //maya:cachekey functions.
package cachekey

import (
	"strconv"
	"time"
)

// deriveBad mixes nondeterministic inputs into a key. A //maya:wallclock
// blessing does not exempt a wall-clock read here, and a map range is
// banned outright; the string accumulation in its body follows the
// iteration order as well, which maprange flags on its own.
//
//maya:cachekey
func deriveBad(fields map[string]string) string {
	key := strconv.FormatInt(time.Now().UnixNano(), 10) //maya:wallclock does not apply inside cachekey // want "wall-clock read time.Now inside a cache-key derivation"
	for k, v := range fields {                          // want "map range inside a cache-key derivation"
		key += k + "=" + v // want "string \+= inside a map range accumulates in randomized order"
	}
	return key
}

// deriveGood hashes declared fields in a fixed order.
//
//maya:cachekey
func deriveGood(version, name string, seed uint64) string {
	return version + "/" + name + "/" + strconv.FormatUint(seed, 10)
}

// unmarked functions keep the repo-wide rules: detwallclock honours the
// blessing, and an order-insensitive map range is allowed.
func unmarked(fields map[string]string) time.Time {
	n := 0
	for range fields {
		n++
	}
	_ = n
	return time.Now() //maya:wallclock blessed as usual outside cachekey functions
}

// keyInputs is a helper one call below a key derivation. Its wall-clock
// read is blessed and its map range only counts, so it is clean on its own;
// under a derivation both reach the key.
func keyInputs(fields map[string]string) string {
	stamp := time.Now().UnixNano() //maya:wallclock blessed for ordinary callers
	n := 0
	for range fields {
		n++
	}
	return strconv.Itoa(n) + "@" + strconv.FormatInt(stamp, 10)
}

// deriveIndirect reaches keyInputs through two call edges; each edge is
// charged on its own line.
//
//maya:cachekey
func deriveIndirect(fields, defaults map[string]string) string {
	key := keyInputs(fields)         // want "cache-key derivation deriveIndirect reaches a wall-clock read time.Now at .*cachekey/a.go:46 .*deriveIndirect → .*keyInputs." "cache-key derivation deriveIndirect reaches a map range at .*cachekey/a.go:48"
	return key + keyInputs(defaults) // want "cache-key derivation deriveIndirect reaches a wall-clock read time.Now" "cache-key derivation deriveIndirect reaches a map range"
}
