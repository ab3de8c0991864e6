package stream

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Server-sent-events framing: the wire format of GET /v1/stream. One
// Msg renders as
//
//	event: kpi
//	id: 42
//	data: {...}
//	<blank line>
//
// AppendSSE writes into a caller-owned buffer so a long-lived
// connection encodes every frame with zero allocations once the buffer
// has warmed up; the parser on the other side (ReadEvent) is shared by
// dispatchtop and the dispatchbench serving client.

// AppendSSE appends the SSE wire encoding of m to b and returns the
// extended buffer. Data is emitted as a single data: line — every
// payload the hub publishes is one JSON object with no interior
// newlines.
func AppendSSE(b []byte, m Msg) []byte {
	b = append(b, "event: "...)
	b = append(b, m.Topic...)
	b = append(b, "\nid: "...)
	b = strconv.AppendUint(b, m.Seq, 10)
	b = append(b, "\ndata: "...)
	b = append(b, m.Data...)
	b = append(b, '\n', '\n')
	return b
}

// AppendSSEComment appends an SSE comment line (": <text>") to b. SSE
// clients ignore comments, so they serve as heartbeats and terminal
// diagnostics without disturbing the event stream.
func AppendSSEComment(b []byte, text string) []byte {
	b = append(b, ':', ' ')
	b = append(b, text...)
	b = append(b, '\n', '\n')
	return b
}

// Event is one parsed server-sent event (or comment) on the client
// side.
type Event struct {
	// Name is the event: field ("kpi", "snapshot", ...); empty for
	// comment-only frames (heartbeats).
	Name string
	// ID is the id: field parsed as the hub sequence number (0 when
	// absent).
	ID uint64
	// Data is the data: payload. Multiple data lines are joined with
	// newlines per the SSE spec.
	Data []byte
	// Comment holds comment lines (": ..."), joined with newlines —
	// the server's heartbeats and the terminal drop-accounting line.
	Comment string
}

// Reader incrementally parses an SSE byte stream into Events.
type Reader struct {
	sc *bufio.Scanner
}

// NewReader wraps r in an SSE parser. Lines up to 1 MiB are supported
// (a snapshot with a large KPI window is the biggest frame we emit).
func NewReader(r io.Reader) *Reader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	return &Reader{sc: sc}
}

// ReadEvent returns the next event, blocking until one dispatch-
// complete frame (terminated by a blank line) arrives. io.EOF reports a
// cleanly closed stream; a frame in progress at EOF is returned first.
func (r *Reader) ReadEvent() (Event, error) {
	var (
		ev       Event
		data     [][]byte
		comments []string
		seen     bool
	)
	finish := func() Event {
		ev.Data = bytes.Join(data, []byte("\n"))
		ev.Comment = strings.Join(comments, "\n")
		return ev
	}
	for r.sc.Scan() {
		line := r.sc.Bytes()
		if len(line) == 0 {
			if !seen {
				continue // stray blank line between frames
			}
			return finish(), nil
		}
		seen = true
		switch {
		case bytes.HasPrefix(line, []byte(":")):
			comments = append(comments, string(bytes.TrimPrefix(bytes.TrimPrefix(line, []byte(":")), []byte(" "))))
		case bytes.HasPrefix(line, []byte("event:")):
			ev.Name = string(bytes.TrimSpace(line[len("event:"):]))
		case bytes.HasPrefix(line, []byte("id:")):
			if id, err := strconv.ParseUint(string(bytes.TrimSpace(line[len("id:"):])), 10, 64); err == nil {
				ev.ID = id
			}
		case bytes.HasPrefix(line, []byte("data:")):
			d := line[len("data:"):]
			if len(d) > 0 && d[0] == ' ' {
				d = d[1:]
			}
			data = append(data, append([]byte(nil), d...))
		}
		// Unknown fields are ignored per the SSE spec.
	}
	if err := r.sc.Err(); err != nil {
		return Event{}, err
	}
	if seen {
		return finish(), nil
	}
	return Event{}, io.EOF
}

// IsHeartbeat reports whether the event is a comment-only keepalive.
func (e Event) IsHeartbeat() bool { return e.Name == "" && len(e.Data) == 0 }

// ParseTopics parses a comma-separated topics= query value into a topic
// list (nil means "all topics"). Unknown topic names are an error so a
// typo fails loudly instead of silently streaming nothing.
func ParseTopics(q string) ([]Topic, error) {
	if q == "" {
		return nil, nil
	}
	var out []Topic
	for _, part := range strings.Split(q, ",") {
		t := Topic(strings.TrimSpace(part))
		if t == "" {
			continue
		}
		if !ValidTopic(t) {
			return nil, fmt.Errorf("stream: unknown topic %q", t)
		}
		out = append(out, t)
	}
	return out, nil
}
