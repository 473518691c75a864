package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// Trace export: two interchangeable encodings of the same []TraceEvent.
//
//   - Chrome trace-event JSON ({"traceEvents":[...]}): loadable directly in
//     Perfetto (ui.perfetto.dev) or chrome://tracing. Timestamps are
//     microsecond floats as the format requires; the exact nanosecond values
//     ride along in each event's args so a parse round-trips bit-exactly.
//   - JSONL: one TraceEvent per line, for jq/grep pipelines and appends.
//
// ParseTraceEvents auto-detects either encoding, so `mayactl -trace-summary`
// accepts whatever the run emitted.

// chromeEvent is one Chrome trace-event "complete" (ph "X") record.
type chromeEvent struct {
	Name string          `json:"name"`
	Cat  string          `json:"cat,omitempty"`
	Ph   string          `json:"ph"`
	TS   float64         `json:"ts"`  // microseconds since trace start
	Dur  float64         `json:"dur"` // microseconds
	PID  int             `json:"pid"`
	TID  uint32          `json:"tid"`
	Args chromeEventArgs `json:"args"`
}

// chromeEventArgs carries the lossless payload: Perfetto shows it in the
// span's detail pane, and ParseTraceEvents prefers the exact nanosecond
// values here over the float microseconds above.
type chromeEventArgs struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
	Arg     int64  `json:"arg,omitempty"`
	Label   string `json:"label,omitempty"`
}

type chromeTrace struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
}

// WriteChromeTrace writes events as Chrome trace-event JSON. Load the file
// in Perfetto (ui.perfetto.dev → Open trace file) or chrome://tracing; the
// span hierarchy renders as nested slices grouped by lane (tid).
func WriteChromeTrace(w io.Writer, events []TraceEvent) error {
	ct := chromeTrace{TraceEvents: make([]chromeEvent, 0, len(events))}
	for _, ev := range events {
		ct.TraceEvents = append(ct.TraceEvents, chromeEvent{
			Name: ev.Name,
			Cat:  ev.Cat,
			Ph:   "X",
			TS:   float64(ev.StartNS) / 1e3,
			Dur:  float64(ev.DurNS) / 1e3,
			PID:  1,
			TID:  ev.Lane,
			Args: chromeEventArgs{
				ID:      ev.ID,
				Parent:  ev.Parent,
				StartNS: ev.StartNS,
				DurNS:   ev.DurNS,
				Arg:     ev.Arg,
				Label:   ev.Label,
			},
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(ct)
}

// WriteTraceJSONL writes events one JSON object per line.
func WriteTraceJSONL(w io.Writer, events []TraceEvent) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// maxTraceParse bounds how much of a trace file ParseTraceEvents will
// buffer, so a corrupt or hostile input cannot exhaust memory.
const maxTraceParse = 1 << 28 // 256 MiB

// ParseTraceEvents reads a trace in either export encoding — Chrome
// trace-event JSON (the {"traceEvents": [...]} object or a bare event
// array) or JSONL — auto-detected from the first non-space byte. Chrome
// events round-trip exactly: the nanosecond values in args are preferred
// over the lossy microsecond floats.
func ParseTraceEvents(r io.Reader) ([]TraceEvent, error) {
	data, err := io.ReadAll(io.LimitReader(r, maxTraceParse+1))
	if err != nil {
		return nil, fmt.Errorf("read trace: %w", err)
	}
	if len(data) > maxTraceParse {
		return nil, fmt.Errorf("trace exceeds %d bytes", maxTraceParse)
	}
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	if len(trimmed) == 0 {
		return nil, nil
	}
	switch trimmed[0] {
	case '[':
		var ces []chromeEvent
		if err := json.Unmarshal(trimmed, &ces); err != nil {
			return nil, fmt.Errorf("parse chrome trace array: %w", err)
		}
		return fromChromeEvents(ces), nil
	case '{':
		// Either the Chrome {"traceEvents": ...} wrapper or the first line
		// of a JSONL stream. The wrapper's encoding spans multiple lines and
		// has the traceEvents key; a JSONL line is a complete object.
		var ct chromeTrace
		if err := json.Unmarshal(trimmed, &ct); err == nil && ct.TraceEvents != nil {
			return fromChromeEvents(ct.TraceEvents), nil
		}
		return parseTraceJSONL(trimmed)
	default:
		return nil, fmt.Errorf("unrecognized trace format (starts with %q)", trimmed[0])
	}
}

func fromChromeEvents(ces []chromeEvent) []TraceEvent {
	events := make([]TraceEvent, 0, len(ces))
	for _, ce := range ces {
		if ce.Ph != "" && ce.Ph != "X" {
			continue // metadata or non-complete events from other tools
		}
		ev := TraceEvent{
			Name:    ce.Name,
			Cat:     ce.Cat,
			Label:   ce.Args.Label,
			ID:      ce.Args.ID,
			Parent:  ce.Args.Parent,
			Lane:    ce.TID,
			StartNS: ce.Args.StartNS,
			DurNS:   ce.Args.DurNS,
			Arg:     ce.Args.Arg,
		}
		// Traces from other emitters may lack our args payload; fall back
		// to the microsecond floats.
		if ev.StartNS == 0 && ev.DurNS == 0 && (ce.TS != 0 || ce.Dur != 0) {
			ev.StartNS = int64(ce.TS * 1e3)
			ev.DurNS = int64(ce.Dur * 1e3)
		}
		events = append(events, ev)
	}
	return events
}

func parseTraceJSONL(data []byte) ([]TraceEvent, error) {
	var events []TraceEvent
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<22)
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		// Strict decode: JSONL is our own export format, so an unknown
		// field means the input is not a trace (e.g. an arbitrary JSON
		// object that fell through Chrome-wrapper detection).
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		var ev TraceEvent
		if err := dec.Decode(&ev); err != nil {
			return nil, fmt.Errorf("trace jsonl line %d: %w", line, err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scan trace jsonl: %w", err)
	}
	return events, nil
}
