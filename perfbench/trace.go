package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/edgeai/fedml/internal/obs"
	"github.com/edgeai/fedml/internal/transport"
)

// span is one timed call into a layer, recorded by the benchmark around the
// public functions it drives. Spans of one training call share Episode;
// Parent is resolved when the call ends (link and node spans hang under
// their round, rounds under the episode).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Episode int    `json:"episode"`
	Round   int    `json:"round"`
	Node    int    `json:"node"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	// Counts holds what was counted inside the span for calls too numerous
	// to keep as spans of their own: the fleet's per-node link and update
	// calls, as summed and maximum nanoseconds and a node count.
	Counts map[string]int64 `json:"counts,omitempty"`
}

// maxSpans bounds the in-memory trace; later spans are counted, not kept.
const maxSpans = 2_000_000

// tracer keeps spans in memory for the traced run. It is also the
// obs.RoundObserver handed to core, from which it takes the node compute
// timings. Safe for concurrent use.
type tracer struct {
	origin time.Time

	mu      sync.Mutex
	spans   []span
	dropped int
	episode int
	first   int // index of the current episode's first span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.origin).Nanoseconds() }

// record keeps one span of the current episode.
func (t *tracer) record(name string, round, node int, start, end time.Time, counts map[string]int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans), Parent: -1, Name: name, Episode: t.episode,
		Round: round, Node: node, Start: t.ns(start), End: t.ns(end), Counts: counts,
	})
}

// Observe implements obs.RoundObserver: node compute events become spans.
func (t *tracer) Observe(e obs.Event) {
	if e.Type != obs.TypeNodeCompute {
		return
	}
	end := time.Now()
	t.record("node.compute", e.Round, e.Node, end.Add(-e.Dur), end, nil)
}

// beginEpisode opens a training call.
func (t *tracer) beginEpisode() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.episode++
	t.first = len(t.spans)
}

// endEpisode closes a training call: it adds the episode span and one span
// per round (round r runs from the previous OnRound callback, or the call's
// start, to its own callback), links every span of the call to its parent,
// and returns the call's spans.
func (t *tracer) endEpisode(start, end time.Time, roundEnds []time.Time) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans)+len(roundEnds)+1 > maxSpans {
		t.dropped += len(t.spans) - t.first
		t.spans = t.spans[:t.first]
		return nil
	}
	epID := len(t.spans)
	t.spans = append(t.spans, span{ID: epID, Parent: -1, Name: "episode", Episode: t.episode,
		Node: -1, Start: t.ns(start), End: t.ns(end)})
	roundID := make(map[int]int, len(roundEnds))
	prev := start
	for r, at := range roundEnds {
		id := len(t.spans)
		roundID[r+1] = id
		t.spans = append(t.spans, span{ID: id, Parent: epID, Name: "round", Episode: t.episode,
			Round: r + 1, Node: -1, Start: t.ns(prev), End: t.ns(at)})
		prev = at
	}
	for i := t.first; i < epID; i++ {
		s := &t.spans[i]
		if id, ok := roundID[s.Round]; ok {
			s.Parent = id
		} else {
			s.Parent = epID
		}
	}
	return t.spans[t.first:]
}

// write dumps the trace as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return f.Close()
}

// timedLink records a span around every Send and Recv of a transport.Link
// that carries a round number. Done messages (round 0) are not recorded.
type timedLink struct {
	transport.Link
	tr         *tracer
	send, recv string
	node       int
}

func (l *timedLink) Send(m transport.Msg) error {
	start := time.Now()
	err := l.Link.Send(m)
	if m.Round > 0 {
		l.tr.record(l.send, m.Round, l.node, start, time.Now(), nil)
	}
	return err
}

func (l *timedLink) Recv() (transport.Msg, error) {
	start := time.Now()
	m, err := l.Link.Recv()
	if err == nil && m.Round > 0 {
		l.tr.record(l.recv, m.Round, l.node, start, time.Now(), nil)
	}
	return m, err
}

// countConn counts the bytes written to a socket.
type countConn struct {
	net.Conn
	written *atomic.Int64
}

func (c countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written.Add(int64(n))
	return n, err
}
