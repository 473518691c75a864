package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"github.com/maya-defense/maya/internal/attack"
	"github.com/maya-defense/maya/internal/core"
	"github.com/maya-defense/maya/internal/defense"
	"github.com/maya-defense/maya/internal/experiments"
	"github.com/maya-defense/maya/internal/sim"
	"github.com/maya-defense/maya/internal/telemetry"
	"github.com/maya-defense/maya/internal/trace"
)

// attackFig is one of the paper's three attacks, configured as
// experiments.Fig6, Fig8 and Fig9 configure it.
type attackFig struct {
	name    string
	cfg     sim.Config
	classes []defense.Class
	spec    attack.Spec
	outlet  bool
	period  int // attacker sampling interval in ticks
}

func attackFigs(sc experiments.Scale) []attackFig {
	window := attack.DefaultSpec()
	window.WindowLen = sc.TraceTicks / 20 / 5
	window.Train.Epochs = sc.Epochs
	fft := attack.FFTSpec()
	fft.WindowLen = sc.TraceTicks / 50
	fft.Train.Epochs = sc.Epochs
	return []attackFig{
		{"fig6", sim.Sys1(), defense.AppClasses(sc.WorkloadScale), window, false, 20},
		{"fig8", sim.Sys2(), defense.VideoClasses(sc.WorkloadScale * 2), window, false, 20},
		{"fig9", sim.Sys3(), defense.PageClasses(sc.WorkloadScale * 8), fft, true, 50},
	}
}

// collect captures f's dataset under Maya GS, seeded as experiments.Fig6,
// Fig8 and Fig9 seed their Maya GS capture. The pipeline's code and sizes
// do not depend on the defense, so the other two defenses those figures
// compare would only repeat the same work.
func collect(f attackFig, art *core.Design, sc experiments.Scale, seed uint64) *trace.Dataset {
	ds, _ := defense.Collect(context.Background(), defense.CollectSpec{
		Cfg:               f.cfg,
		Design:            defense.NewDesign(defense.MayaGS, f.cfg, art, 20),
		Classes:           f.classes,
		RunsPerClass:      sc.RunsPerClass,
		MaxTicks:          sc.TraceTicks,
		WarmupTicks:       sc.WarmupTicks,
		AttackPeriodTicks: f.period,
		Outlet:            f.outlet,
		Seed:              seed + 3*1_000_000_007,
	})
	return ds // the run statistics are not needed
}

// attackWorkload is the attacker's pipeline from raw trace to confusion
// matrix. Setup captures the Fig 6, 8 and 9 datasets and keeps them as
// MAYT bytes; a pass decodes each and runs attack.Run on it, so no
// simulation happens in the timed part.
type attackWorkload struct {
	env

	// Built by setup, one entry per figure.
	blobs     [][]byte
	specs     []attack.Spec
	labels    []string
	traces    int   // traces classified per pass
	collectNS int64 // time the defense.Collect calls took

	// matrices holds each pipeline's confusion matrix from the last pass.
	matrices []string
}

func (w *attackWorkload) setup(seed uint64) error {
	sc := w.sz.attackScale
	w.blobs, w.specs, w.labels, w.traces, w.collectNS = nil, nil, nil, 0, 0
	for _, f := range attackFigs(sc) {
		art, err := core.DesignFor(f.cfg, core.DefaultDesignOptions())
		if err != nil {
			return err
		}
		t0 := time.Now()
		ds := collect(f, art, sc, seed)
		w.collectNS += time.Since(t0).Nanoseconds()
		var b bytes.Buffer
		if err := ds.WriteBinary(&b); err != nil {
			return err
		}
		w.blobs = append(w.blobs, b.Bytes())
		w.specs = append(w.specs, f.spec)
		w.labels = append(w.labels, f.name)
		w.traces += len(ds.Traces)
	}
	return nil
}

func (w *attackWorkload) pass(_ context.Context, tr *telemetry.Tracer, parent telemetry.SpanContext) (pass, error) {
	h := sha256.New()
	lat := make([]float64, 0, len(w.blobs))
	w.matrices = make([]string, len(w.blobs))
	start := time.Now()
	for i, blob := range w.blobs {
		sp := tr.Start("attack.pipeline", "attack", parent, uint64(i))
		sp.Label = w.labels[i]
		sc := sp.Context()
		t0 := time.Now()
		rd := tr.Start("trace.read_binary", "trace", sc, 0)
		ds, err := trace.ReadBinary(bytes.NewReader(blob))
		rd.End()
		if !w.tally.check(err == nil, "%s: read MAYT: %v", w.labels[i], err) {
			sp.End()
			continue
		}
		run := tr.Start("attack.run", "attack", sc, 0)
		res, err := attack.Run(ds, w.specs[i])
		run.End()
		d := time.Since(t0)
		sp.End()
		if w.tally.check(err == nil, "%s: %v", w.labels[i], err) {
			lat = append(lat, ms(d))
			w.matrices[i] = fmt.Sprint(res.Confusion.Matrix)
			fmt.Fprintf(h, "%s %s\n", w.labels[i], w.matrices[i])
		}
	}
	return pass{wall: time.Since(start), work: float64(w.traces), latMS: lat, digest: hex.EncodeToString(h.Sum(nil))}, nil
}

// layers replays two of the pass's pipelines stage by stage from their
// MAYT bytes — Fig 6 (window features) and Fig 9 (FFT features) — and
// checks each replay's confusion matrix against the one attack.Run gave in
// the pass. The nn metrics are Fig 6's, whose window features make the
// largest network of the three attacks.
func (w *attackWorkload) layers(clk layerClock) ([]metric, error) {
	out := []metric{{"defense.collect_s", nsTo(w.collectNS, time.Second), "s", len(w.blobs)}}
	for _, p := range []struct {
		fig     int
		feature string
	}{{0, "window"}, {2, "fft"}} {
		i := p.fig
		t0 := clk.now()
		ds, err := trace.ReadBinary(bytes.NewReader(w.blobs[i]))
		readNS := clk.span("trace.read_binary", uint64(i), t0)
		if err != nil {
			return nil, err
		}
		cm, at, err := replayAttack(ds, w.specs[i], p.feature, clk)
		if err != nil {
			return nil, fmt.Errorf("%s replay: %w", w.labels[i], err)
		}
		w.tally.check(fmt.Sprint(cm.Matrix) == w.matrices[i],
			"%s replay: confusion matrix differs from attack.Run's", w.labels[i])
		out = append(out, metric{"attack.featurize_ms." + p.feature, nsTo(at.featurize, time.Millisecond), "ms", 1})
		if p.feature == "window" {
			out = append(out,
				metric{"trace.read_binary_ms", nsTo(readNS, time.Millisecond), "ms", 1},
				metric{"nn.split_ms", nsTo(at.split, time.Millisecond), "ms", 1},
				metric{"nn.train_ms", nsTo(at.train, time.Millisecond) / attackRestarts, "ms", attackRestarts},
				metric{"nn.eval_ms", nsTo(at.eval, time.Millisecond), "ms", 1})
		}
	}
	return out, nil
}
