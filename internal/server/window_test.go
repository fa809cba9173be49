package server_test

import (
	"io"
	"strconv"
	"strings"
	"testing"
	"time"

	"pcomb"
	"pcomb/internal/server"
)

// The window policy, checked on what the server did (which windows it
// committed, which replies exist before which bytes), never on how long it
// took: a window commits at the FlushOps cap or the moment the server has
// used up everything the client sent.

func startWindowServer(t *testing.T) (*server.Server, *client) {
	t.Helper()
	srv, _, addr, _ := startServer(t, pcomb.ServerOptions{Threads: 2, FlushOps: 16}, server.Options{FlushOps: 16})
	return srv, dial(t, addr)
}

// sets stages n SET commands on distinct keys.
func (cl *client) sets(n int) {
	for i := 0; i < n; i++ {
		cl.send("SET", "w"+strconv.Itoa(i), strconv.Itoa(i))
	}
}

func (cl *client) wantOKs(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if got := cl.reply(t); got != "+OK" {
			t.Fatalf("reply %d = %q, want +OK", i, got)
		}
	}
}

// wantWindows checks the committed windows: how many, and the smallest and
// largest.
func wantWindows(t *testing.T, srv *server.Server, count, min, max uint64) {
	t.Helper()
	h := srv.BatchStats()
	if h.Count() != count || h.Min() != min || h.Max() != max {
		t.Fatalf("windows: %d of %d..%d ops, want %d of %d..%d", h.Count(), h.Min(), h.Max(), count, min, max)
	}
}

func TestWindowSequentialRoundTrips(t *testing.T) {
	srv, cl := startWindowServer(t)
	for i := 0; i < 5; i++ {
		if got := cl.do(t, "SET", "k", strconv.Itoa(i)); got != "+OK" {
			t.Fatalf("SET %d = %q", i, got)
		}
	}
	wantWindows(t, srv, 5, 1, 1)
}

// TestWindowOneWriteOneWindow: a burst that arrives in one segment is one
// window, in both durability modes — epoch mode stages and commits exactly as
// strict mode does.
func TestWindowOneWriteOneWindow(t *testing.T) {
	for _, epoch := range []bool{false, true} {
		for _, n := range []int{5, 16} { // below the cap, and exactly the cap
			srv, _, addr, _ := startServer(t, pcomb.ServerOptions{Threads: 2, FlushOps: 16, Epoch: epoch}, server.Options{FlushOps: 16})
			cl := dial(t, addr)
			cl.sets(n)
			cl.flush(t) // one Write, one segment
			cl.wantOKs(t, n)
			wantWindows(t, srv, 1, uint64(n), uint64(n))
		}
	}
}

// TestWindowGetReadsDurableState: a GET on a window with nothing staged is the
// map's validated read of the durable state, in both modes and on both
// protocols: no round, no persistence instruction. A GET behind a staged write
// of the same window still reads that write.
func TestWindowGetReadsDurableState(t *testing.T) {
	for _, tc := range []struct {
		name  string
		kind  pcomb.Kind
		epoch bool
	}{
		{"PB", pcomb.Blocking, false}, {"PWF", pcomb.WaitFree, false},
		{"PB-epoch", pcomb.Blocking, true}, {"PWF-epoch", pcomb.WaitFree, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, st, addr, _ := startServer(t, pcomb.ServerOptions{Threads: 2, Kind: tc.kind, FlushOps: 16, Epoch: tc.epoch}, server.Options{FlushOps: 16})
			cl := dial(t, addr)
			cl.send("SET", "k", "7")
			cl.send("GET", "k")
			cl.flush(t) // one window: the GET is staged behind the SET
			if got := cl.reply(t); got != "+OK" {
				t.Fatalf("SET k 7 = %q, want +OK", got)
			}
			if got := cl.reply(t); got != "7" {
				t.Fatalf("GET k in the SET's window = %q, want 7", got)
			}

			before := st.Heap().Stats()
			if got := cl.do(t, "GET", "k"); got != "7" {
				t.Fatalf("lone GET k = %q, want 7", got)
			}
			after := st.Heap().Stats()
			pwbs, pfences, psyncs := after.Pwbs-before.Pwbs, after.Pfences-before.Pfences, after.Psyncs-before.Psyncs
			if pwbs != 0 || pfences != 0 || psyncs != 0 {
				t.Fatalf("a lone GET cost %d pwbs, %d pfences, %d psyncs; want none", pwbs, pfences, psyncs)
			}
		})
	}
}

// TestWindowIsOneRound: the store's map is one combining instance, so a full
// window of SETs on distinct keys is one vectorized announcement and one
// round, wherever its keys hash: one psync and one pfence, both the round's.
// The system-area record is written with DirectStore and the announcement
// block is volatile, so neither adds an instruction. The second window is measured, so
// nothing a thread's first commit sets up is counted.
func TestWindowIsOneRound(t *testing.T) {
	for _, tc := range []struct {
		name string
		kind pcomb.Kind
	}{{"PB", pcomb.Blocking}, {"PWF", pcomb.WaitFree}} {
		t.Run(tc.name, func(t *testing.T) {
			srv, st, addr, _ := startServer(t, pcomb.ServerOptions{Threads: 2, Kind: tc.kind, FlushOps: 16}, server.Options{FlushOps: 16})
			cl := dial(t, addr)
			cl.sets(16)
			cl.flush(t)
			cl.wantOKs(t, 16)
			wantWindows(t, srv, 1, 16, 16)

			before := st.Heap().Stats()
			for i := 0; i < 16; i++ {
				cl.send("SET", "r"+strconv.Itoa(i), strconv.Itoa(i))
			}
			cl.flush(t)
			cl.wantOKs(t, 16)
			after := st.Heap().Stats()
			wantWindows(t, srv, 2, 16, 16)
			psyncs, pfences := after.Psyncs-before.Psyncs, after.Pfences-before.Pfences
			t.Logf("a 16-SET window: %d psyncs, %d pfences, %d pwbs", psyncs, pfences, after.Pwbs-before.Pwbs)
			if psyncs != 1 || pfences != 1 {
				t.Fatalf("a 16-SET window cost %d psyncs and %d pfences, want 1 and 1", psyncs, pfences)
			}
		})
	}
}

// TestWindowDefaultCapacity: a default store holds 512 keys, all in its one
// instance, and refuses the 513th.
func TestWindowDefaultCapacity(t *testing.T) {
	_, _, addr, _ := startServer(t, pcomb.ServerOptions{Threads: 1}, server.Options{})
	cl := dial(t, addr)
	const slots = 512
	for i := 0; i < slots; i++ {
		cl.send("SET", "c"+strconv.Itoa(i), "1")
	}
	cl.flush(t)
	cl.wantOKs(t, slots)
	if got := cl.do(t, "SET", "c"+strconv.Itoa(slots), "1"); !strings.HasPrefix(got, "-ERR") {
		t.Fatalf("SET of key %d = %q, want -ERR", slots+1, got)
	}
}

// TestWindowNoReplyWaitsOnUnsentBytes: a burst that ends inside a frame. The
// complete commands' replies must be readable while the rest of the frame is
// still unsent.
func TestWindowNoReplyWaitsOnUnsentBytes(t *testing.T) {
	srv, cl := startWindowServer(t)
	cl.sets(2)
	cl.bw.WriteString("*3\r\n$3\r\nSET\r\n$2\r\nw2")
	cl.flush(t)
	cl.wantOKs(t, 2)
	wantWindows(t, srv, 1, 2, 2)

	cl.bw.WriteString("\r\n$1\r\n2\r\n")
	cl.flush(t)
	cl.wantOKs(t, 1)
	wantWindows(t, srv, 2, 1, 2)
}

// TestWindowCommitsBeforeProtocolError: a malformed frame that arrives in the
// same segment as good commands is found in the buffer, with their window
// still open. They are owed their commit and their replies before the -ERR
// and the close, and the connection's thread id must go back to the pool with
// nothing staged on it.
func TestWindowCommitsBeforeProtocolError(t *testing.T) {
	srv, cl := startWindowServer(t)
	cl.sets(2)
	cl.bw.WriteString("*1\r\n$-5\r\n")
	cl.flush(t)
	cl.wantOKs(t, 2)
	if got := cl.reply(t); !strings.HasPrefix(got, "-ERR") {
		t.Fatalf("after the good commands: %q, want -ERR", got)
	}
	if _, err := cl.br.ReadByte(); err != io.EOF {
		t.Fatalf("after protocol error: %v, want EOF", err)
	}
	wantWindows(t, srv, 1, 2, 2)

	cl2 := dial(t, cl.c.RemoteAddr().String())
	for i := 0; i < 2; i++ {
		if got := cl2.do(t, "GET", "w"+strconv.Itoa(i)); got != strconv.Itoa(i) {
			t.Fatalf("GET w%d from a second connection = %q, want %d", i, got, i)
		}
	}
}

// TestWindowFrameTimeoutCountsFromFrameStart: a client cannot hold a frame —
// and with it a thread id — open by dripping bytes. The frame has one
// deadline, not one per read, so the connection is closed while the drip is
// still going and the frame is never answered.
func TestWindowFrameTimeoutCountsFromFrameStart(t *testing.T) {
	t.Parallel()
	_, cl := startWindowServer(t)
	cl.bw.WriteString("*2\r\n$3\r\nGET\r\n$10\r\n")
	cl.flush(t)
	go func() { // 3 s of payload, each gap far inside the 2 s frame timeout
		for i := 0; i < 10; i++ {
			time.Sleep(300 * time.Millisecond)
			if _, err := cl.c.Write([]byte{'x'}); err != nil {
				return
			}
		}
		cl.c.Write([]byte("\r\n"))
	}()
	cl.c.SetReadDeadline(time.Now().Add(10 * time.Second))
	if b, err := cl.br.ReadByte(); err != io.EOF {
		t.Fatalf("dripped frame: read %q, %v; want the connection closed", b, err)
	}
}

// TestCloseWakesBlockedConnections: Close must not wait out a connection
// that is blocked on the socket, between frames or inside one, and the
// client sees every reply it was owed and then a clean end of stream.
func TestCloseWakesBlockedConnections(t *testing.T) {
	for _, tc := range []struct{ name, tail string }{
		{"idle", ""},
		{"half-sent frame", "*2\r\n$3\r\nGET\r\n$2\r"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, cl := startWindowServer(t)
			cl.sets(2)
			cl.bw.WriteString(tc.tail)
			cl.flush(t)
			cl.wantOKs(t, 2) // the server is now blocked reading this connection

			closed := make(chan struct{})
			go func() {
				srv.Close()
				close(closed)
			}()
			select {
			case <-closed:
			case <-time.After(time.Second): // a frame may take 2 s; Close may not
				t.Fatal("Close is waiting on a blocked connection")
			}
			cl.c.SetReadDeadline(time.Now().Add(5 * time.Second))
			if rest, err := io.ReadAll(cl.br); err != nil || len(rest) != 0 {
				t.Fatalf("after Close: %q, %v; want a clean end of stream", rest, err)
			}
		})
	}
}
