package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/maya-defense/maya/internal/fault"
	"github.com/maya-defense/maya/internal/sim"
	"github.com/maya-defense/maya/internal/trace"
	"github.com/maya-defense/maya/internal/workload"
)

// run dispatches args as the command line and returns what it printed.
func run(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := dispatch(args, &out); err != nil {
		t.Fatalf("mayactl %s: %v", strings.Join(args, " "), err)
	}
	return out.String()
}

// TestDispatchRejectsStrayArguments pins that a command line dispatch
// cannot place is an error naming every command: an unknown command, a
// positional argument after the run mode's flags, and a positional command
// given the wrong number of arguments.
func TestDispatchRejectsStrayArguments(t *testing.T) {
	for _, args := range [][]string{
		{"nosuchcommand"},
		{"-seconds", "1", "extra"},
		{"-defense", "gs", "attack"},
	} {
		err := dispatch(args, io.Discard)
		if err == nil {
			t.Fatalf("mayactl %s: no error", strings.Join(args, " "))
		}
		for _, c := range commands {
			if !strings.Contains(err.Error(), c.name) {
				t.Errorf("mayactl %s: error %q does not list %s", strings.Join(args, " "), err, c.name)
			}
		}
	}
	for _, args := range [][]string{{"convert", "a.csv"}, {"list", "x"}, {"dump-machine"}} {
		if err := dispatch(args, io.Discard); err == nil || !strings.Contains(err.Error(), "usage: mayactl "+args[0]) {
			t.Errorf("mayactl %s: error %v, want its usage", strings.Join(args, " "), err)
		}
	}
}

// TestCommandsBoundSeconds pins that the commands which simulate check
// -seconds with runTicks before doing any work: under one tick would run
// sim.Run's 1<<20-tick fallback, a negative count panics in
// sim.RecordDemands, and 2e6 s sizes a recording past what memory holds.
// The replayed trace does not exist and the defense needs a design, so
// any work done first would fail differently or take minutes. mask bounds
// its sample count the same way; a negative one panicked in mask.Generate.
func TestCommandsBoundSeconds(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "rec.csv")
	for _, cmd := range [][]string{
		{"attack", "-defense", "gs"},
		{"replay", "-record", "blackscholes", "-o", out},
		{"replay", "-play", filepath.Join(dir, "missing.csv")},
		{"mask"},
	} {
		for _, seconds := range []string{"0.0001", "-1", "NaN", "2e6"} {
			args := append(cmd[:len(cmd):len(cmd)], "-seconds", seconds)
			err := dispatch(args, io.Discard)
			if err == nil || !strings.HasPrefix(err.Error(), "seconds ") {
				t.Errorf("mayactl %s: error %v, want the -seconds bound", strings.Join(args, " "), err)
			}
		}
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("a rejected -record wrote %s (stat: %v)", out, err)
	}
}

// TestAttackBoundsRunsAndEpochs pins that attack refuses -runs and -epochs
// under 1, and a -folds other than 0 under 2, before collecting:
// defense.Collect would record one run per class for -runs 0, attack.Run
// would train the default 60 epochs for -epochs 0 and Train's default 40
// for a negative count, and -folds 1 or a negative count would skip
// cross-validation and exit 0.
func TestAttackBoundsRunsAndEpochs(t *testing.T) {
	for _, tc := range []struct{ flag, value string }{
		{"runs", "0"}, {"runs", "-3"}, {"epochs", "0"}, {"epochs", "-1"},
		{"folds", "1"}, {"folds", "-2"},
	} {
		args := []string{"attack", "-defense", "random", "-runs", "2", "-seconds", "1", "-epochs", "1", "-" + tc.flag, tc.value}
		var out bytes.Buffer
		err := dispatch(args, &out)
		if err == nil || !strings.HasPrefix(err.Error(), tc.flag+" ") || out.Len() != 0 {
			t.Errorf("mayactl %s: error %v, printed %q; want the -%s bound and no output", strings.Join(args, " "), err, out.String(), tc.flag)
		}
	}
}

// TestMaskRejectsBadBands pins that mask refuses an empty, inverted or
// non-finite band before building a generator: the random generators
// panicked on an inverted band, -mask constant printed its midpoint, and
// a NaN bound printed NaN targets.
func TestMaskRejectsBadBands(t *testing.T) {
	for _, band := range [][]string{
		{"-min", "30", "-max", "10"},
		{"-mask", "constant", "-min", "30", "-max", "10"},
		{"-min", "10", "-max", "10"},
		{"-min", "NaN"},
		{"-max", "NaN"},
		{"-mask", "constant", "-max", "NaN"},
		{"-min", "-Inf"},
		{"-max", "Inf"},
	} {
		args := append([]string{"mask", "-seconds", "1"}, band...)
		var out bytes.Buffer
		err := dispatch(args, &out)
		if err == nil || !strings.HasPrefix(err.Error(), "band ") || out.Len() != 0 {
			t.Errorf("mayactl %s: error %v, printed %d bytes; want the band check and no output", strings.Join(args, " "), err, out.Len())
		}
	}
}

// TestCommandsRunOnTinyInputs runs every command once on small inputs.
func TestCommandsRunOnTinyInputs(t *testing.T) {
	dir := t.TempDir()

	if got := run(t, "mask", "-seconds", "1"); !strings.HasPrefix(got, "time_s,target_w\n") || strings.Count(got, "\n") != 51 {
		t.Errorf("mask: got %q, want a header and 50 rows", got)
	}
	if got := run(t, "mask", "-seconds", "1", "-fft"); !strings.HasPrefix(got, "freq_hz,magnitude\n") {
		t.Errorf("mask -fft: got %q", got)
	}
	if got := run(t, "sysid"); !strings.Contains(got, "synthesized controller (Eq. 1)") || !strings.Contains(got, "mask band for this machine") {
		t.Errorf("sysid: got %q", got)
	}

	rec := filepath.Join(dir, "rec.csv")
	if got := run(t, "replay", "-record", "blackscholes", "-seconds", "0.5", "-o", rec); got != "recorded 500 ticks of blackscholes to "+rec+"\n" {
		t.Errorf("replay -record: got %q", got)
	}
	if got := run(t, "replay", "-play", rec, "-defense", "random", "-seconds", "0.5"); !strings.HasPrefix(got, "replayed 500 ticks ("+rec+") under Random Inputs on sys1\n") {
		t.Errorf("replay -play: got %q", got)
	}

	got := run(t, "attack", "-defense", "random", "-runs", "2", "-seconds", "1", "-epochs", "1")
	if !strings.HasPrefix(got, "attack:   detect the running application (Fig 6) (MLP)\ndefense:  Random Inputs\n") {
		t.Errorf("attack: got %q", got)
	}

	if got := run(t, "list"); !strings.Contains(got, "blackscholes") || !strings.Contains(got, "video/tractor") {
		t.Errorf("list: got %q", got)
	}
	cfg, err := sim.ReadConfigJSON(strings.NewReader(run(t, "dump-machine", "sys1")))
	if err != nil || cfg.Name != "sys1" {
		t.Errorf("dump-machine sys1: read back %q, %v", cfg.Name, err)
	}
	plan, err := fault.ReadPlanJSON(strings.NewReader(run(t, "dump-fault-plan", "kitchen-sink")))
	if err != nil || plan.Name != "kitchen-sink" {
		t.Errorf("dump-fault-plan kitchen-sink: read back %q, %v", plan.Name, err)
	}

	d := &trace.Dataset{ClassNames: []string{"a", "b"}}
	d.Add(0, 20, []float64{10.5, 11.25, 12})
	d.Add(1, 20, []float64{20, 19.125})
	csv1, mayt, csv2 := filepath.Join(dir, "d.csv"), filepath.Join(dir, "d.mayt"), filepath.Join(dir, "d2.csv")
	if err := trace.WriteDatasetFile(csv1, d); err != nil {
		t.Fatal(err)
	}
	if got := run(t, "convert", csv1, mayt); got != "converted "+csv1+" -> "+mayt+" (2 classes, 2 traces, 5 samples)\n" {
		t.Errorf("convert: got %q", got)
	}
	run(t, "convert", mayt, csv2)
	a, errA := os.ReadFile(csv1)
	b, errB := os.ReadFile(csv2)
	if errA != nil || errB != nil || !bytes.Equal(a, b) {
		t.Errorf("CSV→MAYT→CSV changed the file:\n%s\nvs\n%s (%v, %v)", a, b, errA, errB)
	}
}

// TestRecordResolvesCatalogNames records workloads through the same name
// grammar the run mode and mayad accept, including the instruction loops
// and idle, and rejects a name that grammar does not know.
func TestRecordResolvesCatalogNames(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"blackscholes", "video/tractor", "web/google", "instr/imul", "idle"} {
		out := filepath.Join(dir, "trace.csv")
		if err := dispatch([]string{"replay", "-record", name, "-o", out, "-seconds", "0.05"}, io.Discard); err != nil {
			t.Fatalf("record %s: %v", name, err)
		}
		f, err := os.Open(out)
		if err != nil {
			t.Fatal(err)
		}
		demands, err := workload.ReadDemandsCSV(f)
		f.Close()
		if err != nil {
			t.Fatalf("record %s: reading back: %v", name, err)
		}
		if len(demands) != 50 {
			t.Fatalf("record %s: %d demands, want 50", name, len(demands))
		}
	}
	if err := dispatch([]string{"replay", "-record", "nosuchapp", "-o", filepath.Join(dir, "bad.csv")}, io.Discard); err == nil {
		t.Fatal("recording an unknown workload succeeded")
	}
}

// TestPlayRejectsUnknownNames checks -machine and -defense resolve through
// the shared machine and defense lookups.
func TestPlayRejectsUnknownNames(t *testing.T) {
	for _, tc := range []struct{ flag, value, err string }{
		{"-machine", "sys9", "unknown machine"},
		{"-defense", "nosuchdefense", "unknown defense"},
	} {
		err := dispatch([]string{"replay", "-play", "unused.csv", tc.flag, tc.value}, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.err) {
			t.Errorf("replay -play %s %s: error %v, want %q", tc.flag, tc.value, err, tc.err)
		}
	}
}
