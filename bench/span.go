package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
)

// span is one timed interval at a layer boundary, recorded by the benchmark
// around its own calls (spans inside the stack are a later change). Spans of
// one request share (Conn, Seq): the connection or thread, and the count of
// operations it had issued before this one. Parent names the span of the same
// request that encloses this one; a root has none.
type span struct {
	Name   string
	Parent string
	Conn   int
	Seq    uint64
	N      int // operations covered: 1, or a window's size for a flush
	Start  int64
	End    int64
}

// spanRing keeps the most recent spans of one worker in preallocated memory;
// one goroutine writes it during a phase and the trial reads it afterwards.
type spanRing struct {
	buf []span
	n   uint64
}

const spansPerRing = 1 << 13

func newSpanRing() *spanRing { return &spanRing{buf: make([]span, spansPerRing)} }

func (r *spanRing) add(s span) {
	r.buf[r.n%spansPerRing] = s
	r.n++
}

// spans returns the retained spans, oldest first.
func (r *spanRing) spans() []span {
	if r.n <= spansPerRing {
		return r.buf[:r.n]
	}
	at := r.n % spansPerRing
	return append(append([]span(nil), r.buf[at:]...), r.buf[:at]...)
}

// writeSpans writes the rings as JSONL under dir and returns the file's path.
func writeSpans(dir, name string, rings []*spanRing) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	for _, r := range rings {
		for _, s := range r.spans() {
			fmt.Fprintf(w, `{"name":%q,"parent":%q,"req":"%d:%d","n":%d,"start_ns":%d,"end_ns":%d}`+"\n",
				s.Name, s.Parent, s.Conn, s.Seq, s.N, s.Start, s.End)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("write %s: %w", path, err)
	}
	return path, f.Close()
}
