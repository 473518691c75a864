package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"time"

	"github.com/maya-defense/maya/internal/expcache"
	"github.com/maya-defense/maya/internal/experiments"
	"github.com/maya-defense/maya/internal/runner"
	"github.com/maya-defense/maya/internal/telemetry"
)

const (
	// cacheVersion is the code version folded into every cache key: fixed,
	// so keys do not depend on how the binary was built.
	cacheVersion = "mayabench"
	// suiteWorkers is the runner's worker count for the cold run.
	suiteWorkers = 2
	// cacheProbeReps repeats the warm-path probes enough to outlast timer
	// noise.
	cacheProbeReps = 20
)

// suiteWorkload regenerates the experiment suite: a cold run into an
// empty cache, then warm replays that must reproduce the cold report byte
// for byte.
type suiteWorkload struct {
	env

	// Built by setup.
	seed    uint64
	entries []experiments.SuiteEntry
	cache   *expcache.Cache // empty; the next pass's cold run fills it

	// The last pass's cold run: its outcomes and wall time.
	cold     []experiments.SuiteOutcome
	coldWall time.Duration
}

// setup selects the entries and opens an empty cache under the work
// directory, probing it for every entry's key as a cold run starts by
// doing.
func (w *suiteWorkload) setup(seed uint64) error {
	w.seed = seed
	w.entries = experiments.FilterSuite(experiments.Suite(), w.sz.suiteFilter)
	if w.cache != nil {
		if err := os.RemoveAll(w.cache.Dir()); err != nil {
			return err
		}
	}
	var err error
	w.cache, err = w.openCache()
	if err != nil {
		return err
	}
	for _, e := range w.entries {
		w.cache.Get(e.CacheKey(cacheVersion, w.sz.suiteScale, seed))
	}
	return nil
}

// openCache opens an empty read-write cache in a new directory under the
// work directory.
func (w *suiteWorkload) openCache() (*expcache.Cache, error) {
	dir, err := os.MkdirTemp(w.workDir, "expcache-*")
	if err != nil {
		return nil, err
	}
	return expcache.Open(dir, expcache.ModeReadWrite)
}

func (w *suiteWorkload) pass(ctx context.Context, tr *telemetry.Tracer, parent telemetry.SpanContext) (pass, error) {
	if w.cache == nil {
		if err := w.setup(w.seed); err != nil {
			return pass{}, err
		}
	}
	cache := w.cache
	w.cache = nil
	defer os.RemoveAll(cache.Dir())
	sc, cc := w.sz.suiteScale, experiments.CacheConfig{Cache: cache, Version: cacheVersion}
	opts := runner.Options{Workers: suiteWorkers}

	span := tr.Start("experiments.cold", "suite", parent, 0)
	start := time.Now()
	outs := experiments.RunSuiteCached(ctx, w.entries, sc, w.seed, opts, cc)
	var cold bytes.Buffer
	err := experiments.WriteReport(&cold, sc, w.seed, outs, false)
	wall := time.Since(start)
	span.End()
	if err != nil {
		return pass{}, err
	}
	for _, o := range outs {
		w.tally.check(o.Err == nil && !o.TimedOut, "suite entry %s: %v", o.Name, o.Err)
	}
	w.cold, w.coldWall = outs, wall

	lat := make([]float64, w.sz.warmReplays)
	var warm bytes.Buffer
	for i := range lat {
		sp := tr.Start("experiments.warm", "suite", parent, uint64(i))
		t0 := time.Now()
		outs := experiments.RunSuiteCached(ctx, w.entries, sc, w.seed, opts, cc)
		warm.Reset()
		err := experiments.WriteReport(&warm, sc, w.seed, outs, false)
		lat[i] = ms(time.Since(t0))
		sp.End()
		w.tally.check(err == nil && bytes.Equal(warm.Bytes(), cold.Bytes()),
			"warm replay %d: report differs from the cold one (%v)", i, err)
	}
	sum := sha256.Sum256(cold.Bytes())
	return pass{wall: wall, work: float64(len(w.entries)), latMS: lat, digest: hex.EncodeToString(sum[:])}, nil
}

// layers reports each entry's wall time in the last pass's cold run and
// how busy the runner kept its workers: the sum of the entries' walls over
// workers × the run's wall. Then it times the two halves of a warm replay
// on the cold run's outcomes: Cache.Get of every entry, from a cache the
// outcomes are put into, and report rendering.
func (w *suiteWorkload) layers(clk layerClock) ([]metric, error) {
	var out []metric
	var busy time.Duration
	for _, o := range w.cold {
		out = append(out, metric{"experiments." + o.Name + "_s", o.Wall.Seconds(), "s", 1})
		busy += o.Wall
	}
	out = append(out, metric{"experiments.parallel_efficiency",
		float64(busy) / float64(suiteWorkers*w.coldWall), "frac", len(w.cold)})

	cache, err := w.openCache()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(cache.Dir())
	sc := w.sz.suiteScale
	keys := make([]expcache.Key, len(w.entries))
	for i, en := range w.entries {
		keys[i] = en.CacheKey(cacheVersion, sc, w.seed)
		res := w.cold[i].Res
		if res == nil {
			return nil, fmt.Errorf("suite entry %s has no result", en.Name)
		}
		if err := cache.Put(keys[i], expcache.Entry{Experiment: en.Name, ID: res.ID(), Render: res.Render()}); err != nil {
			return nil, err
		}
	}
	var gets []float64
	for rep := 0; rep < cacheProbeReps; rep++ {
		for i, key := range keys {
			t0 := clk.now()
			_, ok := cache.Get(key)
			gets = append(gets, nsTo(clk.span("expcache.get", uint64(i), t0), time.Microsecond))
			w.tally.check(ok, "expcache: miss on %s after Put", w.entries[i].Name)
		}
	}
	reports := make([]float64, cacheProbeReps)
	var buf bytes.Buffer
	for rep := range reports {
		buf.Reset()
		t0 := clk.now()
		err := experiments.WriteReport(&buf, sc, w.seed, w.cold, false)
		reports[rep] = nsTo(clk.span("experiments.write_report", uint64(rep), t0), time.Microsecond)
		if err != nil {
			return nil, err
		}
	}
	return append(out,
		metric{"expcache.get_us", median(gets), "us", len(gets)},
		metric{"experiments.write_report_us", median(reports), "us", len(reports)},
	), nil
}
