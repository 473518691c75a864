package workload

import (
	"bytes"
	"strings"
	"testing"
)

func TestReplayPlaysTrace(t *testing.T) {
	demands := []Demand{
		{Threads: 1, Activity: 0.5, MemFrac: 0.1},
		{Threads: 4, Activity: 0.9, MemFrac: 0.2},
	}
	r := NewReplay("test", demands, false)
	if r.Name() != "replay/test" || r.Len() != 2 {
		t.Fatalf("meta wrong: %s len %d", r.Name(), r.Len())
	}
	if d := r.Demand(); d.Threads != 1 {
		t.Fatalf("tick 0: %+v", d)
	}
	if d := r.Demand(); d.Threads != 4 {
		t.Fatalf("tick 1: %+v", d)
	}
	if !r.Done() {
		t.Fatal("trace exhausted but not done")
	}
	if d := r.Demand(); d.Threads != 0 {
		t.Fatalf("done replay should idle: %+v", d)
	}
	r.Reset(0)
	if r.Done() {
		t.Fatal("reset did not rewind")
	}
}

func TestReplayLoop(t *testing.T) {
	r := NewReplay("loop", []Demand{{Threads: 2, Activity: 0.3}}, true)
	for i := 0; i < 100; i++ {
		if d := r.Demand(); d.Threads != 2 {
			t.Fatalf("loop broke at %d: %+v", i, d)
		}
	}
	if r.Done() {
		t.Fatal("looping replay should never finish")
	}
}

func TestDemandsCSVRoundTrip(t *testing.T) {
	orig := []Demand{
		{Threads: 1, Activity: 0.25, MemFrac: 0.5},
		{Threads: 6, Activity: 1.1, MemFrac: 0},
	}
	var buf bytes.Buffer
	if err := WriteDemandsCSV(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDemandsCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(orig) {
		t.Fatalf("len=%d", len(got))
	}
	for i := range got {
		if got[i] != orig[i] {
			t.Fatalf("row %d: %+v vs %+v", i, got[i], orig[i])
		}
	}
}

func TestReadDemandsCSVRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"x,0.5,0.1\n",
		"1,zz,0.1\n",
		"1,0.5,zz\n",
		"-1,0.5,0.1\n",
		"1,3.5,0.1\n",
		"1,0.5,1.5\n",
	}
	for i, c := range cases {
		if _, err := ReadDemandsCSV(strings.NewReader(c)); err == nil {
			t.Fatalf("case %d accepted: %q", i, c)
		}
	}
}

func TestRecordThenReplayMatchesProgram(t *testing.T) {
	// Recording a phase program and replaying it must produce the same
	// demand sequence (programs are deterministic given a seed).
	p := NewApp("streamcluster")
	p.Reset(4)
	rec := make([]Demand, 500)
	for i := range rec {
		rec[i] = p.Demand()
	}
	rp := NewReplay("streamcluster", rec, false)
	p2 := NewApp("streamcluster")
	p2.Reset(4)
	for i := 0; i < 500; i++ {
		want := p2.Demand()
		got := rp.Demand()
		if got != want {
			t.Fatalf("tick %d: %+v vs %+v", i, got, want)
		}
	}
}

func TestNewReplayPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewReplay("x", nil, false)
}
