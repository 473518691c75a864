package workload

import (
	"math"
	"testing"
	"testing/quick"
)

func TestProgramPhaseAdvance(t *testing.T) {
	p := NewProgram("test", []Phase{
		{Name: "a", Work: 10, Threads: 1, Activity: 0.5, MemFrac: 0.1},
		{Name: "b", Work: 5, Threads: 4, Activity: 0.9, MemFrac: 0.2},
	})
	if p.Done() {
		t.Fatal("fresh program done")
	}
	if d := p.Demand(); d.Threads != 1 || d.Activity != 0.5 {
		t.Fatalf("phase a demand: %+v", d)
	}
	if p.Advance(10) {
		t.Fatal("done too early")
	}
	if d := p.Demand(); d.Threads != 4 {
		t.Fatalf("should be in phase b: %+v", d)
	}
	if !p.Advance(5) {
		t.Fatal("should be done")
	}
	if !p.Done() {
		t.Fatal("Done() false after completion")
	}
	if d := p.Demand(); d.Threads != 0 || d.Activity != 0 {
		t.Fatalf("done program should demand nothing: %+v", d)
	}
}

func TestAdvanceSpansPhases(t *testing.T) {
	p := NewProgram("test", []Phase{
		{Name: "a", Work: 3, Threads: 1, Activity: 0.5},
		{Name: "b", Work: 3, Threads: 2, Activity: 0.5},
		{Name: "c", Work: 3, Threads: 3, Activity: 0.5},
	})
	p.Advance(7) // lands 1 unit into phase c
	if p.PhaseIndex() != 2 {
		t.Fatalf("phase index %d want 2", p.PhaseIndex())
	}
	if math.Abs(p.Progress()-7.0/9.0) > 1e-12 {
		t.Fatalf("progress=%g", p.Progress())
	}
}

func TestResetRestores(t *testing.T) {
	p := NewApp("blackscholes")
	p.Advance(p.TotalWork())
	if !p.Done() {
		t.Fatal("not done after total work")
	}
	p.Reset(1)
	if p.Done() || p.Progress() != 0 {
		t.Fatal("reset did not restart")
	}
}

func TestJitterVariesAcrossSeedsOnly(t *testing.T) {
	a := NewApp("radiosity")
	a.Reset(1)
	w1 := a.TotalWork()
	a.Reset(2)
	w2 := a.TotalWork()
	a.Reset(1)
	w3 := a.TotalWork()
	if w1 == w2 {
		t.Fatal("different seeds produced identical jitter")
	}
	if w1 != w3 {
		t.Fatal("same seed not reproducible")
	}
}

func TestOscillationModulatesDemand(t *testing.T) {
	p := NewProgram("osc", []Phase{{
		Name: "x", Work: 100, Threads: 2, Activity: 0.5,
		Osc: &Oscillation{Amp: 0.2, PeriodWork: 10},
	}})
	seen := map[string]bool{}
	for i := 0; i < 40; i++ {
		d := p.Demand()
		if d.Activity > 0.6 {
			seen["high"] = true
		}
		if d.Activity < 0.4 {
			seen["low"] = true
		}
		p.Advance(2.5)
	}
	if !seen["high"] || !seen["low"] {
		t.Fatalf("oscillation not visible: %v", seen)
	}
}

func TestDemandActivityNonNegative(t *testing.T) {
	p := NewProgram("neg", []Phase{{
		Name: "x", Work: 100, Threads: 1, Activity: 0.1,
		Osc: &Oscillation{Amp: 0.5, PeriodWork: 8},
	}})
	for i := 0; i < 200; i++ {
		if d := p.Demand(); d.Activity < 0 {
			t.Fatalf("negative activity %g", d.Activity)
		}
		p.Advance(0.5)
	}
}

func TestScale(t *testing.T) {
	p := NewApp("vips")
	half := p.Scale(0.5)
	// Jitter differs per instance; compare against unjittered sums loosely.
	if half.TotalWork() > 0.6*p.TotalWork() || half.TotalWork() < 0.4*p.TotalWork() {
		t.Fatalf("scale 0.5: %g vs %g", half.TotalWork(), p.TotalWork())
	}
	if half.Name() != p.Name() {
		t.Fatal("scale changed name")
	}
}

func TestAllAppsConstructible(t *testing.T) {
	if len(AppNames) != 11 {
		t.Fatalf("want 11 apps, got %d", len(AppNames))
	}
	names := map[string]bool{}
	for _, n := range AppNames {
		a := NewApp(n)
		if a.Name() != n {
			t.Fatalf("NewApp(%q) is named %q", n, a.Name())
		}
		if names[a.Name()] {
			t.Fatalf("duplicate app %s", a.Name())
		}
		names[a.Name()] = true
		if a.TotalWork() <= 0 {
			t.Fatalf("%s has no work", a.Name())
		}
	}
}

func TestVideosAndPagesAndInstrs(t *testing.T) {
	if len(VideoNames) != 4 {
		t.Fatal("want 4 videos")
	}
	for _, n := range VideoNames {
		if v := NewVideo(n); v.TotalWork() <= 0 {
			t.Fatalf("video %s has no work", n)
		}
	}
	if len(PageNames) != 7 {
		t.Fatal("want 7 pages")
	}
	for _, n := range PageNames {
		if p := NewPage(n); p.TotalWork() <= 0 {
			t.Fatalf("page %s has no work", n)
		}
	}
	if len(InstrNames) != 3 {
		t.Fatal("want 3 instruction loops")
	}
	loops := make([]*Program, len(InstrNames))
	for i, n := range InstrNames {
		loops[i] = NewInstrLoop(n, 50)
	}
	// PLATYPUS premise: activity ordering imul > mov > xor.
	if !(loops[0].Demand().Activity > loops[1].Demand().Activity &&
		loops[1].Demand().Activity > loops[2].Demand().Activity) {
		t.Fatal("instruction activity ordering broken")
	}
}

func TestAppSignaturesDistinct(t *testing.T) {
	// Apps must differ in at least one of (dominant activity, mem fraction,
	// total work) so that baseline traces are distinguishable.
	type sig struct{ act, mem, work float64 }
	sigs := map[string]sig{}
	for _, n := range AppNames {
		a := NewApp(n)
		d := a.Demand()
		// advance into the dominant (largest) phase: just advance 30%
		a.Advance(0.3 * a.TotalWork())
		d2 := a.Demand()
		sigs[a.Name()] = sig{act: d.Activity + d2.Activity, mem: d.MemFrac + d2.MemFrac, work: a.TotalWork()}
	}
	for n1, s1 := range sigs {
		for n2, s2 := range sigs {
			if n1 >= n2 {
				continue
			}
			if math.Abs(s1.act-s2.act) < 1e-9 && math.Abs(s1.mem-s2.mem) < 1e-9 && math.Abs(s1.work-s2.work) < 1e-9 {
				t.Fatalf("apps %s and %s have identical signatures", n1, n2)
			}
		}
	}
}

func TestProgressMonotonic(t *testing.T) {
	f := func(seed uint64) bool {
		p := NewApp("bodytrack")
		p.Reset(seed)
		last := 0.0
		for i := 0; i < 100 && !p.Done(); i++ {
			p.Advance(2)
			pr := p.Progress()
			if pr < last-1e-12 || pr > 1+1e-12 {
				return false
			}
			last = pr
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestIdleWorkload(t *testing.T) {
	var idle Idle
	if idle.Done() || idle.Advance(100) {
		t.Fatal("idle should never finish")
	}
	if d := idle.Demand(); d.Threads != 0 {
		t.Fatal("idle demands threads")
	}
}

func TestUnknownNamesPanic(t *testing.T) {
	for _, f := range []func(){
		func() { NewApp("nope") },
		func() { NewVideo("nope") },
		func() { NewPage("nope") },
		func() { NewInstrLoop("nope", 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic for unknown name")
				}
			}()
			f()
		}()
	}
}

func TestCatalogCoversEverything(t *testing.T) {
	entries := Catalog()
	want := len(AppNames) + len(VideoNames) + len(PageNames) + len(InstrNames)
	if len(entries) != want {
		t.Fatalf("catalog has %d entries, want %d", len(entries), want)
	}
	seen := map[string]bool{}
	for _, e := range entries {
		if e.Name == "" || e.Suite == "" || e.Description == "" {
			t.Fatalf("incomplete entry: %+v", e)
		}
		if seen[e.Name] {
			t.Fatalf("duplicate %s", e.Name)
		}
		seen[e.Name] = true
		if e.Suite != "instr" && e.BaselineSeconds <= 0 {
			t.Fatalf("%s has no runtime estimate", e.Name)
		}
	}
}
