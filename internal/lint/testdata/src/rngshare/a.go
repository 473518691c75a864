// Package rngshare is a golden-test fixture for streams crossing
// goroutine boundaries.
package rngshare

import (
	"sync"

	"github.com/maya-defense/maya/internal/rng"
)

func worker(r *rng.Stream) float64 { return r.Float64() }

func badShare(seed uint64) {
	r := rng.New(seed)
	ch := make(chan *rng.Stream, 1)
	ch <- r // want "sent over a channel"

	var wg sync.WaitGroup
	wg.Add(2)
	go worker(r) // want "passed to a goroutine"
	go func() {
		defer wg.Done()
		_ = r.Float64() // want "goroutine closure captures"
	}()
	wg.Wait()
}

// goodChildAt captures the parent only to derive index-addressed children,
// which never advances the parent — the documented safe pattern.
func goodChildAt(seed uint64) {
	r := rng.New(seed)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i uint64) {
			defer wg.Done()
			child := r.ChildAt(i)
			_ = child.NormFloat64()
		}(uint64(i))
	}
	wg.Wait()
}

// goodNewChild derives the goroutine's stream from the seed inside the
// goroutine; nothing is shared.
func goodNewChild(seed uint64) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		s := rng.NewChild(seed, 3)
		_ = s.Float64()
	}()
	<-done
}

// spawnDraw leaks its stream parameter into a goroutine.
func spawnDraw(r *rng.Stream, wg *sync.WaitGroup) {
	go func() {
		defer wg.Done()
		_ = r.Float64() // want "goroutine closure captures"
	}()
}

// forwardDraw leaks its parameter one call further down: the escape
// fixpoint carries spawnDraw's leak up to it.
func forwardDraw(r *rng.Stream, wg *sync.WaitGroup) {
	spawnDraw(r, wg) // want "passing \*rng.Stream to .*spawnDraw, which leaks parameter 0 across a goroutine boundary"
}

func badLeak(seed uint64) {
	r := rng.New(seed)
	var wg sync.WaitGroup
	wg.Add(2)
	spawnDraw(r, &wg)   // want "passing \*rng.Stream to .*spawnDraw, which leaks parameter 0"
	forwardDraw(r, &wg) // want "passing \*rng.Stream to .*forwardDraw, which leaks parameter 0"
	wg.Wait()
}
