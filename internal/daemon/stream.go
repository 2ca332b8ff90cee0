package daemon

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
)

// reportWriter serializes Report lines from the control loop and the
// reader goroutine onto one stream.
type reportWriter struct {
	mu  sync.Mutex
	enc *json.Encoder
}

// report emits one JSONL line (no-op without Config.Out).
func (d *Daemon) report(r Report) {
	if d.out == nil {
		return
	}
	d.out.mu.Lock()
	defer d.out.mu.Unlock()
	d.out.enc.Encode(r) //nolint:errcheck // a broken report pipe must not stop the control loop
}

// maxObservationBytes caps one observation: a JSONL line on the stream
// or a POST /observe body.
const maxObservationBytes = 16 << 20

// lineDecoder reads one JSON Observation per line, skipping blanks.
type lineDecoder struct {
	sc   *bufio.Scanner
	line int
	dead bool
}

func newLineDecoder(r io.Reader) *lineDecoder {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxObservationBytes)
	return &lineDecoder{sc: sc}
}

// next returns the next observation, io.EOF at end of stream, or a
// decode error naming the line.
func (ld *lineDecoder) next() (Observation, error) {
	if ld.dead {
		return Observation{}, io.EOF
	}
	for ld.sc.Scan() {
		ld.line++
		text := strings.TrimSpace(ld.sc.Text())
		if text == "" {
			continue
		}
		var obs Observation
		if err := json.Unmarshal([]byte(text), &obs); err != nil {
			return Observation{}, fmt.Errorf("observation line %d: %v", ld.line, err)
		}
		return obs, nil
	}
	if err := ld.sc.Err(); err != nil {
		// A failed underlying reader never recovers: report it once, then
		// present EOF so the feed goroutine winds down.
		ld.dead = true
		return Observation{}, fmt.Errorf("observation stream: %v", err)
	}
	return Observation{}, io.EOF
}
