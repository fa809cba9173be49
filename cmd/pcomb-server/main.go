// pcomb-server serves a RESP2 subset (GET/SET/GETSET/DEL/GETDEL/INCRBY,
// LPUSH/RPOP, PING, WAIT) on a durable combining store: a recoverable hash
// map and FIFO queue on an mmap file-backed heap. Each connection binds one
// combining thread id and stages its commands into a per-connection window
// that commits — one combining round, one durability point, all replies — at
// the size cap, or as soon as the client has nothing more in flight: the
// server never holds a window open while it waits on the socket. Restarting
// the server on the same file recovers every acknowledged operation, and the
// server prints what recovery resolved at open: "recovered N ops on M
// connections (U uncertain)".
//
//	pcomb-server -path /var/tmp/pcomb.heap -addr :6380
//	redis-cli -p 6380 SET k 41; redis-cli -p 6380 INCRBY k 1
//
// -smoke runs a self-contained CI check instead of serving: a scripted
// conformance pass plus the given duration of mixed random traffic over
// several connections, then a full stop, reopen (recovery must report a
// restart), and a verification pass that every durable value survived.
// Exit 0 means the smoke passed.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"pcomb"
	"pcomb/internal/server"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:6380", "listen address")
		path     = flag.String("path", "", "backing heap file (required unless -smoke, which defaults to a temp file)")
		threads  = flag.Int("threads", 16, "max concurrent connections (combining slots; part of the persistent layout)")
		kindName = flag.String("kind", "pb", "combining protocol: pb (blocking) or pwf (wait-free)")
		flushOps = flag.Int("flush-ops", 16, "per-connection batch window cap; a window also commits as soon as the client has nothing more in flight (1 = flush per command; part of the persistent layout)")
		epoch    = flag.Bool("epoch", false, "epoch-mode relaxed durability: a window's replies leave at its commit and it becomes durable at the next epoch close, which WAIT forces (part of the persistent layout)")
		epochUs  = flag.Int("epoch-us", 1000, "background epoch close cadence (µs; with -epoch)")
		syncName = flag.String("sync", "none", "msync on fences: none, async, or fence")
		smoke    = flag.Duration("smoke", 0, "run the CI smoke for this duration instead of serving (e.g. 30s)")
	)
	flag.Parse()

	kind := pcomb.Blocking
	switch *kindName {
	case "pb":
	case "pwf":
		kind = pcomb.WaitFree
	default:
		fmt.Fprintf(os.Stderr, "bad -kind %q (want pb or pwf)\n", *kindName)
		os.Exit(2)
	}
	sync, ok := pcomb.ParseSyncMode(*syncName)
	if !ok {
		fmt.Fprintf(os.Stderr, "bad -sync %q (want none, async, or fence)\n", *syncName)
		os.Exit(2)
	}
	sopts := pcomb.ServerOptions{
		Path:          *path,
		Threads:       *threads,
		Kind:          kind,
		FlushOps:      *flushOps,
		Epoch:         *epoch,
		EpochInterval: time.Duration(*epochUs) * time.Microsecond,
		Sync:          sync,
	}
	popts := server.Options{FlushOps: *flushOps}

	if *smoke > 0 {
		if err := runSmoke(sopts, popts, *smoke); err != nil {
			fmt.Fprintf(os.Stderr, "smoke: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("smoke ok")
		return
	}

	if *path == "" {
		fmt.Fprintln(os.Stderr, "-path is required (the durable state must live somewhere)")
		os.Exit(2)
	}
	st, restart, err := pcomb.OpenServerStore(sopts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "open %s: %v\n", *path, err)
		os.Exit(1)
	}
	srv := server.New(st, popts)
	laddr, err := srv.Start(*addr)
	if err != nil {
		st.Close()
		fmt.Fprintf(os.Stderr, "listen %s: %v\n", *addr, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "pcomb-server: serving %s on %s (restart=%v, %d slots, window=%d)\n",
		*path, laddr, restart, *threads, *flushOps)
	fmt.Fprintf(os.Stderr, "pcomb-server: %s\n", recoveryLine(st.Recovered()))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr, "pcomb-server: shutting down")
	srv.Close()
	if err := st.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "close: %v\n", err)
		os.Exit(1)
	}
}

// ---- smoke mode ----

// runSmoke is the CI self-check: scripted conformance, mixed random traffic
// for dur, stop, reopen, verify durability across the restart.
func runSmoke(sopts pcomb.ServerOptions, popts server.Options, dur time.Duration) error {
	if sopts.Path == "" {
		dir, err := os.MkdirTemp("", "pcomb-smoke-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		sopts.Path = filepath.Join(dir, "smoke.heap")
	}
	if sopts.Threads < 4 {
		sopts.Threads = 4
	}

	// Phase 1: fresh store, scripted conformance, then random traffic. Every
	// counter increment is tracked locally so the restart can verify totals.
	st, _, err := pcomb.OpenServerStore(sopts)
	if err != nil {
		return err
	}
	srv := server.New(st, popts)
	laddr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		st.Close()
		return err
	}
	addr := laddr.String()

	c, err := dialSmoke(addr)
	if err != nil {
		return err
	}
	script := []struct {
		cmd  []string
		want string
	}{
		{[]string{"PING"}, "+PONG"},
		{[]string{"SET", "alpha", "11"}, "+OK"},
		{[]string{"SET", "beta", "22"}, "+OK"},
		{[]string{"GETSET", "beta", "23"}, "22"},
		{[]string{"INCRBY", "ctr", "5"}, ":5"},
		{[]string{"INCRBY", "ctr", "-2"}, ":3"},
		{[]string{"LPUSH", "jobs", "7"}, ":1"},
		{[]string{"LPUSH", "jobs", "8"}, ":1"},
		{[]string{"RPOP", "jobs"}, "7"},
		{[]string{"DEL", "gone"}, ":0"},
		{[]string{"WAIT"}, ":1"},
	}
	for _, s := range script {
		got, err := c.do(s.cmd...)
		if err != nil {
			return fmt.Errorf("%v: %w", s.cmd, err)
		}
		if got != s.want {
			return fmt.Errorf("%v = %q, want %q", s.cmd, got, s.want)
		}
	}

	// Random traffic: nconn connections hammer private counters until the
	// deadline, WAIT, and report their final totals.
	nconn := sopts.Threads - 1
	if nconn > 4 {
		nconn = 4
	}
	totals := make([]uint64, nconn)
	errs := make([]error, nconn)
	var wg sync.WaitGroup
	deadline := time.Now().Add(dur)
	for i := 0; i < nconn; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			totals[i], errs[i] = smokeTraffic(addr, i, deadline)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("traffic conn %d: %w", i, err)
		}
	}
	if err := c.close(); err != nil {
		return err
	}
	srv.Close()
	if err := st.Close(); err != nil {
		return err
	}

	// Phase 2: reopen — recovery must see the old state — and verify both the
	// scripted keys and every connection's acknowledged counter total.
	st2, restart, err := pcomb.OpenServerStore(sopts)
	if err != nil {
		return err
	}
	defer st2.Close()
	if !restart {
		return fmt.Errorf("reopen did not detect a restart")
	}
	// A clean stop leaves no window in flight: recovery ran on every
	// connection slot and resolved nothing.
	rec := recoveryLine(st2.Recovered())
	if len(st2.Recovered()) != sopts.Threads || rec != "recovered 0 ops on 0 connections (0 uncertain)" {
		return fmt.Errorf("after a clean stop, %q over %d slots", rec, len(st2.Recovered()))
	}
	fmt.Fprintf(os.Stderr, "smoke: restart=true, %s\n", rec)
	srv2 := server.New(st2, popts)
	laddr2, err := srv2.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv2.Close()
	c2, err := dialSmoke(laddr2.String())
	if err != nil {
		return err
	}
	defer c2.close()
	checks := []struct {
		cmd  []string
		want string
	}{
		{[]string{"GET", "alpha"}, "11"},
		{[]string{"GET", "beta"}, "23"},
		{[]string{"GET", "ctr"}, "3"},
		{[]string{"RPOP", "jobs"}, "8"},
		{[]string{"RPOP", "jobs"}, "(nil)"},
	}
	for _, s := range checks {
		got, err := c2.do(s.cmd...)
		if err != nil {
			return fmt.Errorf("after restart, %v: %w", s.cmd, err)
		}
		if got != s.want {
			return fmt.Errorf("after restart, %v = %q, want %q", s.cmd, got, s.want)
		}
	}
	for i, want := range totals {
		key := fmt.Sprintf("smoke%d", i)
		got, err := c2.do("GET", key)
		if err != nil {
			return fmt.Errorf("after restart, GET %s: %w", key, err)
		}
		if got != strconv.FormatUint(want, 10) {
			return fmt.Errorf("after restart, %s = %s, want %d (acknowledged increments lost)", key, got, want)
		}
	}
	fmt.Fprintf(os.Stderr, "smoke: %d conns, restart recovered, counters intact: %v\n", nconn, totals)
	return nil
}

// recoveryLine summarizes the table the store's recovery returned at open.
func recoveryLine(rec [][]pcomb.Resolved) string {
	ops, conns, uncertain := 0, 0, 0
	for _, rs := range rec {
		ops += len(rs)
		conns += min(len(rs), 1)
		for _, r := range rs {
			if !r.Certain {
				uncertain++
			}
		}
	}
	return fmt.Sprintf("recovered %d ops on %d connections (%d uncertain)", ops, conns, uncertain)
}

// smokeTraffic drives one connection: INCRBY on a private counter mixed with
// reads and queue churn, WAIT at the end, returning the counter total that
// the final WAIT made durable.
func smokeTraffic(addr string, id int, deadline time.Time) (uint64, error) {
	c, err := dialSmoke(addr)
	if err != nil {
		return 0, err
	}
	defer c.close()
	rng := rand.New(rand.NewSource(int64(id)*7919 + 1))
	key := fmt.Sprintf("smoke%d", id)
	total := uint64(0)
	for time.Now().Before(deadline) {
		d := uint64(rng.Intn(100) + 1)
		total += d
		got, err := c.do("INCRBY", key, strconv.FormatUint(d, 10))
		if err != nil {
			return 0, err
		}
		if got != ":"+strconv.FormatUint(total, 10) {
			return 0, fmt.Errorf("INCRBY %s: got %q, want :%d", key, got, total)
		}
		// No queue ops here: the FIFO is one shared structure (LPUSH ignores
		// its key), and churn would steal the scripted value the restart
		// check pops. The scripted pass owns queue coverage.
		switch rng.Intn(4) {
		case 0:
			if _, err := c.do("GET", key); err != nil {
				return 0, err
			}
		case 1:
			if _, err := c.do("SET", key+".tmp", "1"); err != nil {
				return 0, err
			}
		case 2:
			if _, err := c.do("GETDEL", key+".tmp"); err != nil {
				return 0, err
			}
		}
	}
	if _, err := c.do("WAIT"); err != nil {
		return 0, err
	}
	return total, nil
}

// ---- minimal RESP client ----

type smokeConn struct {
	c  net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

func dialSmoke(addr string) (*smokeConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &smokeConn{c: c, br: bufio.NewReader(c), bw: bufio.NewWriter(c)}, nil
}

func (s *smokeConn) close() error { return s.c.Close() }

// do sends one command and decodes one reply: "+X"/":n"/"-ERR ..." verbatim,
// bulk as its payload, null bulk as "(nil)".
func (s *smokeConn) do(args ...string) (string, error) {
	fmt.Fprintf(s.bw, "*%d\r\n", len(args))
	for _, a := range args {
		fmt.Fprintf(s.bw, "$%d\r\n%s\r\n", len(a), a)
	}
	if err := s.bw.Flush(); err != nil {
		return "", err
	}
	line, err := s.br.ReadString('\n')
	if err != nil {
		return "", err
	}
	line = strings.TrimRight(line, "\r\n")
	if line == "" {
		return "", fmt.Errorf("empty reply")
	}
	switch line[0] {
	case '+', ':', '-':
		return line, nil
	case '$':
		n, err := strconv.Atoi(line[1:])
		if err != nil {
			return "", fmt.Errorf("bad bulk header %q", line)
		}
		if n < 0 {
			return "(nil)", nil
		}
		buf := make([]byte, n+2)
		if _, err := io.ReadFull(s.br, buf); err != nil {
			return "", err
		}
		return string(buf[:n]), nil
	}
	return "", fmt.Errorf("unexpected reply %q", line)
}
