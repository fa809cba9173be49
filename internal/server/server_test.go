package server_test

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"pcomb"
	lin "pcomb/internal/linearizability"
	"pcomb/internal/server"
	"pcomb/internal/testutil"
)

// startServer opens a fresh file-backed store, serves it, and registers
// teardown. The path comes back for restart tests.
func startServer(t *testing.T, opts pcomb.ServerOptions, sopts server.Options) (*server.Server, *pcomb.ServerStore, string, string) {
	t.Helper()
	if opts.Path == "" {
		opts.Path = testutil.TempHeapPath(t)
	}
	opts.NoCost = true
	st, _, err := pcomb.OpenServerStore(opts)
	if err != nil {
		t.Fatalf("OpenServerStore: %v", err)
	}
	srv := server.New(st, sopts)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() {
		srv.Close()
		st.Close()
	})
	return srv, st, addr.String(), opts.Path
}

type client struct {
	c  net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

func dial(t *testing.T, addr string) *client {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	t.Cleanup(func() { c.Close() })
	return &client{c: c, br: bufio.NewReader(c), bw: bufio.NewWriter(c)}
}

// send stages one RESP array command (call flush to put it on the wire).
func (cl *client) send(args ...string) { cl.bw.Write(respFrame(args...)) }

func (cl *client) flush(t *testing.T) {
	t.Helper()
	if err := cl.bw.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
}

// reply decodes one reply: simple/error/integer lines come back verbatim
// ("+OK", "-ERR ...", ":1"), bulk strings come back as their payload, and
// the null bulk as "(nil)".
func (cl *client) reply(t *testing.T) string {
	t.Helper()
	cl.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := cl.br.ReadString('\n')
	if err != nil {
		t.Fatalf("read reply: %v", err)
	}
	line = strings.TrimRight(line, "\r\n")
	if len(line) == 0 {
		t.Fatalf("empty reply line")
	}
	if line[0] != '$' {
		return line
	}
	if line == "$-1" {
		return "(nil)"
	}
	var n int
	if _, err := fmt.Sscanf(line, "$%d", &n); err != nil {
		t.Fatalf("bad bulk header %q", line)
	}
	buf := make([]byte, n+2)
	if _, err := io.ReadFull(cl.br, buf); err != nil {
		t.Fatalf("read bulk payload: %v", err)
	}
	return string(buf[:n])
}

// do round-trips one command.
func (cl *client) do(t *testing.T, args ...string) string {
	t.Helper()
	cl.send(args...)
	cl.flush(t)
	return cl.reply(t)
}

func TestServerConformance(t *testing.T) {
	srv, _, addr, _ := startServer(t,
		pcomb.ServerOptions{Threads: 4, FlushOps: 4},
		server.Options{FlushOps: 4})
	cl := dial(t, addr)

	steps := []struct {
		cmd  []string
		want string
	}{
		{[]string{"PING"}, "+PONG"},
		{[]string{"PING", "hello"}, "+hello"},
		{[]string{"SET", "k", "10"}, "+OK"},
		{[]string{"GET", "k"}, "10"},
		{[]string{"GET", "nosuch"}, "(nil)"},
		{[]string{"INCRBY", "k", "5"}, ":15"},
		{[]string{"INCRBY", "k", "-3"}, ":12"},
		{[]string{"GETSET", "k", "7"}, "12"},
		{[]string{"GETDEL", "k"}, "7"},
		{[]string{"GET", "k"}, "(nil)"},
		{[]string{"DEL", "k"}, ":0"},
		{[]string{"SET", "k", "1"}, "+OK"},
		{[]string{"DEL", "k"}, ":1"},
		{[]string{"LPUSH", "jobs", "101"}, ":1"},
		{[]string{"LPUSH", "jobs", "102"}, ":1"},
		{[]string{"RPOP", "jobs"}, "101"},
		{[]string{"RPOP", "jobs"}, "102"},
		{[]string{"RPOP", "jobs"}, "(nil)"},
		{[]string{"WAIT", "0", "0"}, ":1"},
		{[]string{"INCRBY", "ctr", "notanum"}, "-ERR value is not an integer or out of range"},
		{[]string{"SET", "k", "notanum"}, "-ERR value is not an integer or out of range"},
		{[]string{"GET"}, "-ERR wrong number of arguments for 'GET' command"},
		{[]string{"FLUSHALL"}, "-ERR unknown command 'FLUSHALL'"},
	}
	for _, s := range steps {
		if got := cl.do(t, s.cmd...); got != s.want {
			t.Fatalf("%v = %q, want %q", s.cmd, got, s.want)
		}
	}

	// Inline form: same commands, space-separated words on a line.
	if _, err := cl.bw.WriteString("SET inl 33\r\nGET inl\r\n"); err != nil {
		t.Fatal(err)
	}
	cl.flush(t)
	if got := cl.reply(t); got != "+OK" {
		t.Fatalf("inline SET = %q", got)
	}
	if got := cl.reply(t); got != "33" {
		t.Fatalf("inline GET = %q", got)
	}

	// A pipelined burst commits as one batched window (the tentpole's whole
	// point): 8 writes in one segment must not flush one by one.
	for i := 0; i < 8; i++ {
		cl.send("SET", fmt.Sprintf("b%d", i), fmt.Sprintf("%d", i))
	}
	cl.flush(t)
	for i := 0; i < 8; i++ {
		if got := cl.reply(t); got != "+OK" {
			t.Fatalf("burst SET %d = %q", i, got)
		}
	}
	if max := srv.BatchStats().Max(); max < 2 {
		t.Fatalf("batch-size max = %d after an 8-command burst, want >= 2", max)
	}
}

// TestServerProtocolErrorCloses pins the framing-error contract: the
// connection gets a -ERR and then EOF, and the server stays up for new
// connections.
func TestServerProtocolErrorCloses(t *testing.T) {
	_, _, addr, _ := startServer(t,
		pcomb.ServerOptions{Threads: 2},
		server.Options{})
	cl := dial(t, addr)
	if _, err := cl.bw.WriteString("*1\r\n$-5\r\n"); err != nil {
		t.Fatal(err)
	}
	cl.flush(t)
	if got := cl.reply(t); !strings.HasPrefix(got, "-ERR") {
		t.Fatalf("protocol error reply = %q, want -ERR", got)
	}
	if _, err := cl.br.ReadByte(); err != io.EOF {
		t.Fatalf("after protocol error: %v, want EOF", err)
	}
	cl2 := dial(t, addr)
	if got := cl2.do(t, "PING"); got != "+PONG" {
		t.Fatalf("fresh connection after protocol error: %q", got)
	}
}

// TestServerConnLimit: connections beyond the store's thread budget are
// refused with an error, not hung.
func TestServerConnLimit(t *testing.T) {
	_, _, addr, _ := startServer(t,
		pcomb.ServerOptions{Threads: 1},
		server.Options{})
	cl := dial(t, addr)
	if got := cl.do(t, "PING"); got != "+PONG" {
		t.Fatalf("first connection: %q", got)
	}
	cl2 := dial(t, addr)
	if got := cl2.reply(t); !strings.Contains(got, "max number of clients") {
		t.Fatalf("over-limit connection got %q", got)
	}
}

// TestServerRestartRecovery: acknowledged writes survive a graceful
// shutdown and reopen (recovery-on-start resolves anything pending).
func TestServerRestartRecovery(t *testing.T) {
	opts := pcomb.ServerOptions{Threads: 4, FlushOps: 4, NoCost: true, Path: testutil.TempHeapPath(t)}
	st, restart, err := pcomb.OpenServerStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	if restart {
		t.Fatal("fresh file reported restart")
	}
	srv := server.New(st, server.Options{FlushOps: 4})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := dial(t, addr.String())
	cl.do(t, "SET", "x", "11")
	cl.do(t, "SET", "y", "22")
	cl.do(t, "LPUSH", "jobs", "7")
	if got := cl.do(t, "WAIT", "0", "0"); got != ":1" {
		t.Fatalf("WAIT = %q", got)
	}
	srv.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, restart2, err := pcomb.OpenServerStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if !restart2 {
		t.Fatal("reopen did not report restart")
	}
	srv2 := server.New(st2, server.Options{FlushOps: 4})
	addr2, err := srv2.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	cl2 := dial(t, addr2.String())
	if got := cl2.do(t, "GET", "x"); got != "11" {
		t.Fatalf("GET x after restart = %q", got)
	}
	if got := cl2.do(t, "GET", "y"); got != "22" {
		t.Fatalf("GET y after restart = %q", got)
	}
	if got := cl2.do(t, "RPOP", "jobs"); got != "7" {
		t.Fatalf("RPOP after restart = %q", got)
	}
}

// TestServerEpochWait covers the epoch-mode WAIT path: a window's replies
// leave at its commit, before any epoch close; WAIT forces the close, and a
// clean shutdown + reopen keeps everything synced.
func TestServerEpochWait(t *testing.T) {
	opts := pcomb.ServerOptions{
		Threads: 2, Epoch: true, EpochInterval: 200 * time.Microsecond,
		NoCost: true, Path: testutil.TempHeapPath(t),
	}
	st, _, err := pcomb.OpenServerStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(st, server.Options{})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := dial(t, addr.String())
	if got := cl.do(t, "SET", "e", "5"); got != "+OK" {
		t.Fatalf("epoch SET = %q", got)
	}
	before := st.Map().EpochClosed()
	if got := cl.do(t, "WAIT", "0", "0"); got != ":1" {
		t.Fatalf("epoch WAIT = %q", got)
	}
	if after := st.Map().EpochClosed(); after <= before {
		t.Fatalf("WAIT did not close an epoch: %d -> %d", before, after)
	}
	srv.Close()
	st.Close()

	st2, restart, err := pcomb.OpenServerStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if !restart {
		t.Fatal("reopen did not report restart")
	}
	srv2 := server.New(st2, server.Options{})
	addr2, err := srv2.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	cl2 := dial(t, addr2.String())
	if got := cl2.do(t, "GET", "e"); got != "5" {
		t.Fatalf("epoch GET after restart = %q", got)
	}
}

// TestServerConcurrentMixed is the race-coverage satellite: >= 8 concurrent
// connections drive mixed GET/SET/GETSET/DEL/INCRBY/LPUSH/RPOP/WAIT traffic
// in pipelined bursts against one server, with history recorders installed
// on the underlying map and queue; afterwards both histories must be
// linearizable against their sequential models, and each connection's
// private counter must have observed strictly sequential INCRBY results.
func TestServerConcurrentMixed(t *testing.T) {
	const conns = 8
	const opsPer = 120

	opts := pcomb.ServerOptions{Threads: conns, FlushOps: 8, NoCost: true, Path: testutil.TempHeapPath(t)}
	st, _, err := pcomb.OpenServerStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	mh := pcomb.NewHistory(conns)
	qh := pcomb.NewHistory(conns)
	st.Map().SetHistory(mh)
	st.Queue().SetHistory(qh)
	srv := server.New(st, server.Options{FlushOps: 8})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			if err := runMixedClient(addr.String(), id, opsPer); err != nil {
				errs <- fmt.Errorf("client %d: %w", id, err)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	srv.Close()
	defer st.Close()

	mres := lin.CheckDurablePartitioned(
		func(uint64) lin.Model { return lin.NewMapKeyModel() },
		func(op lin.Op) uint64 { return op.Arg },
		mh.Ops(), lin.Opts{Budget: 5_000_000})
	if err := mres.Err(); err != nil {
		t.Fatalf("map history (%d ops): %v", mres.Ops, err)
	}
	qres := lin.CheckDurable(lin.QueueModel{}, qh.Ops(), lin.Opts{Budget: 5_000_000})
	if err := qres.Err(); err != nil {
		t.Fatalf("queue history (%d ops): %v", qres.Ops, err)
	}
	if mres.Ops == 0 || qres.Ops == 0 {
		t.Fatalf("histories empty: map %d ops, queue %d ops", mres.Ops, qres.Ops)
	}
}

// runMixedClient drives one connection: pipelined bursts of mixed commands
// over a shared key space, plus a private INCRBY counter whose replies must
// come back strictly sequential.
func runMixedClient(addr string, id, ops int) error {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer c.Close()
	br := bufio.NewReader(c)
	bw := bufio.NewWriter(c)
	rng := rand.New(rand.NewSource(int64(1000 + id)))
	privKey := fmt.Sprintf("priv%d", id)
	privCount := 0

	send := func(args ...string) {
		fmt.Fprintf(bw, "*%d\r\n", len(args))
		for _, a := range args {
			fmt.Fprintf(bw, "$%d\r\n%s\r\n", len(a), a)
		}
	}
	read := func() (string, error) {
		c.SetReadDeadline(time.Now().Add(10 * time.Second))
		line, err := br.ReadString('\n')
		if err != nil {
			return "", err
		}
		line = strings.TrimRight(line, "\r\n")
		if strings.HasPrefix(line, "$") && line != "$-1" {
			var n int
			fmt.Sscanf(line, "$%d", &n)
			buf := make([]byte, n+2)
			if _, err := io.ReadFull(br, buf); err != nil {
				return "", err
			}
			return string(buf[:n]), nil
		}
		return line, nil
	}

	for done := 0; done < ops; {
		burst := 1 + rng.Intn(4)
		if burst > ops-done {
			burst = ops - done
		}
		type expect struct {
			priv bool
			want string // "" = any
		}
		var exps []expect
		for b := 0; b < burst; b++ {
			key := fmt.Sprintf("shared%d", rng.Intn(6))
			val := fmt.Sprintf("%d", rng.Intn(1_000_000))
			switch rng.Intn(10) {
			case 0, 1:
				send("SET", key, val)
				exps = append(exps, expect{want: "+OK"})
			case 2, 3:
				send("GET", key)
				exps = append(exps, expect{})
			case 4:
				send("GETSET", key, val)
				exps = append(exps, expect{})
			case 5:
				send("DEL", key)
				exps = append(exps, expect{})
			case 6:
				privCount++
				send("INCRBY", privKey, "1")
				exps = append(exps, expect{priv: true, want: fmt.Sprintf(":%d", privCount)})
			case 7:
				send("LPUSH", "jobs", val)
				exps = append(exps, expect{want: ":1"})
			case 8:
				send("RPOP", "jobs")
				exps = append(exps, expect{})
			case 9:
				send("WAIT", "0", "0")
				exps = append(exps, expect{want: ":1"})
			}
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		for _, e := range exps {
			got, err := read()
			if err != nil {
				return err
			}
			if strings.HasPrefix(got, "-ERR") {
				return fmt.Errorf("unexpected error reply %q", got)
			}
			if e.want != "" && got != e.want {
				return fmt.Errorf("reply %q, want %q", got, e.want)
			}
		}
		done += burst
	}
	return nil
}
