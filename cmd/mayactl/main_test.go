package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/maya-defense/maya/internal/telemetry"
)

// TestGoldenTraceSummaryRoundTrip is the PR's acceptance check: the
// committed Chrome trace-event export parses back and aggregates into
// exactly the committed attribution table.
func TestGoldenTraceSummaryRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := summarizeTrace(&buf, filepath.Join("testdata", "trace_golden.json")); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "trace_golden_summary.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("summary drifted from golden:\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestGoldenTraceParsesExactNS pins the lossless side channel: the Chrome
// µs floats are presentation only, the args carry exact nanoseconds.
func TestGoldenTraceParsesExactNS(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "trace_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := telemetry.ParseTraceEvents(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 17 {
		t.Fatalf("got %d events, want 17", len(events))
	}
	if events[0].Name != "job.run" || events[0].DurNS != 4_000_000 || events[0].Label != "blackscholes" {
		t.Fatalf("root span wrong: %+v", events[0])
	}
	// Span IDs are deterministic functions of identity, so the committed
	// file must agree with SpanID today — a silent ID-scheme change would
	// orphan every archived trace.
	root := telemetry.NewRootContext("mayactl", 42)
	if want := telemetry.SpanID(root.ID, "job.run", 0); events[0].ID != want {
		t.Fatalf("job.run ID = %d, want %d (SpanID scheme drifted)", events[0].ID, want)
	}
	for _, ev := range events[1:] {
		if ev.Parent != events[0].ID {
			t.Fatalf("tick span not parented under the job: %+v", ev)
		}
	}
}

// TestWriteTraceFormats exercises the extension switch on a real tracer.
func TestWriteTraceFormats(t *testing.T) {
	tr := telemetry.NewTracer(64)
	tr.Complete("tick.mask", "engine", telemetry.NewRootContext("t", 1), 0, 0, 100, 0)
	dir := t.TempDir()
	for _, name := range []string{"out.json", "out.jsonl"} {
		path := filepath.Join(dir, name)
		if err := writeTrace(path, tr); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		events, err := telemetry.ParseTraceEvents(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(events) != 1 || events[0].Name != "tick.mask" {
			t.Fatalf("%s: round-trip lost the span: %+v", name, events)
		}
	}
}

// TestRunTicksBounds pins -seconds validation, which both the scalar and
// the -fleet mode run before design synthesis. Unchecked, a duration under
// one tick (0, negative, under 1 ms) runs the 1<<20-tick fallback while
// -flight sizes its ring for the requested run, so most records drop, and
// -seconds 1e9 asks for a ring of 5·10¹⁰ entries.
func TestRunTicksBounds(t *testing.T) {
	for _, tc := range []struct {
		seconds float64
		ticks   int
		err     string
	}{
		{0, 0, "seconds 0 is shorter than one tick"},
		{-3, 0, "seconds -3 is shorter than one tick"},
		{0.0009, 0, "seconds 0.0009 is shorter than one tick"},
		{1e9, 0, "seconds 1e+09 exceeds the 1048576-tick limit"},
		{math.NaN(), 0, "exceeds the 1048576-tick limit"},
		{0.001, 1, ""},
		{20, 20000, ""},
		{1000, 1000000, ""},
	} {
		ticks, err := runTicks(tc.seconds)
		switch {
		case tc.err == "" && (err != nil || ticks != tc.ticks):
			t.Errorf("runTicks(%g) = %d, %v; want %d ticks", tc.seconds, ticks, err, tc.ticks)
		case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
			t.Errorf("runTicks(%g) = %d, %v; want error %q", tc.seconds, ticks, err, tc.err)
		}
	}
}
