package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
)

// srv_pipelined and srv_interactive: the RESP server on a file-backed store,
// over loopback TCP. Both are closed loops of T connections; they differ in
// how many commands a connection keeps in flight (16 or 1) and in the mix.
// Keys are partitioned by connection ("c<i>:k<j>"), so each connection's
// replies are checked against a sequential model of its own keys.

const (
	cmdSet = iota
	cmdGet
	cmdIncrBy
	cmdLPush
	cmdRPop
)

var srvClasses = []class{
	cmdSet:    {name: "SET", span: "srv.cmd"},
	cmdGet:    {name: "GET", span: "srv.cmd", read: true},
	cmdIncrBy: {name: "INCRBY", span: "srv.cmd"},
	cmdLPush:  {name: "LPUSH", span: "srv.cmd"},
	cmdRPop:   {name: "RPOP", span: "srv.cmd", read: true},
}

// srvMix is a workload's share of each command, in percent, and its depth.
type srvMix struct {
	depth int
	share [5]int
}

var srvMixes = map[string]srvMix{
	"srv_pipelined":   {depth: srvFlushOps, share: [5]int{cmdSet: 50, cmdGet: 40, cmdIncrBy: 10}},
	"srv_interactive": {depth: 1, share: [5]int{cmdSet: 35, cmdGet: 35, cmdIncrBy: 10, cmdLPush: 10, cmdRPop: 10}},
}

type srvCmd struct {
	kind uint8
	key  uint16 // index among the connection's keys
	arg  uint64 // SET value or INCRBY delta
	wire []byte // RESP frame; LPUSH is encoded when sent, its value counts pushes
}

const srvScriptLen = 1 << 14

func respFrame(args ...string) []byte {
	b := append([]byte{'*'}, strconv.Itoa(len(args))...)
	b = append(b, '\r', '\n')
	for _, a := range args {
		b = append(b, '$')
		b = append(b, strconv.Itoa(len(a))...)
		b = append(b, '\r', '\n')
		b = append(b, a...)
		b = append(b, '\r', '\n')
	}
	return b
}

func srvKey(conn, j int) string { return fmt.Sprintf("c%d:k%d", conn, j) }

// client is one connection and the model of its keys.
type client struct {
	id    int
	conn  net.Conn
	br    *bufio.Reader
	out   []byte
	vals  []uint64 // model: last acknowledged value per key
	set   []bool
	push  uint64 // LPUSH count: the next pushed value's n
	seq   uint64 // store commands sent since the connection was made: the request id
	t0    int64  // when the batch in flight was written
	spoil bool   // corrupt the next reply (checker self-test)
}

// reply is one parsed RESP reply.
type reply struct {
	kind byte // '+', '-', ':', '$', or 0 for the null bulk
	n    uint64
}

func (c *client) readReply() (reply, error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return reply{}, err
	}
	if len(line) < 3 {
		return reply{}, fmt.Errorf("short reply %q", line)
	}
	kind, body := line[0], line[1:len(line)-2]
	switch kind {
	case '+', '-':
		return reply{kind: kind}, nil
	case ':':
		n, err := parseUint(body)
		return reply{kind: kind, n: n}, err
	case '$':
		if string(body) == "-1" {
			return reply{}, nil
		}
		if line, err = c.br.ReadSlice('\n'); err != nil {
			return reply{}, err
		}
		if len(line) < 3 {
			return reply{}, fmt.Errorf("short bulk %q", line)
		}
		n, err := parseUint(line[:len(line)-2])
		return reply{kind: kind, n: n}, err
	}
	return reply{}, fmt.Errorf("unknown reply %q", line)
}

// parseUint reads a decimal without the allocation strconv needs for a
// string; every reply of a measured phase passes through it.
func parseUint(b []byte) (uint64, error) {
	var n uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("not a decimal: %q", b)
		}
		n = n*10 + uint64(c-'0')
	}
	if len(b) == 0 {
		return 0, fmt.Errorf("empty number")
	}
	return n, nil
}

// check applies cmd to the model and reports whether r is the reply the
// model expects. fifo checks popped values across connections.
func (c *client) check(cmd srvCmd, r reply, fifo *fifoCheck) bool {
	switch cmd.kind {
	case cmdSet:
		c.vals[cmd.key], c.set[cmd.key] = cmd.arg, true
		return r.kind == '+'
	case cmdGet:
		if !c.set[cmd.key] {
			return r.kind == 0
		}
		return r.kind == '$' && r.n == c.vals[cmd.key]
	case cmdIncrBy:
		c.vals[cmd.key] += cmd.arg // an absent key counts from 0
		c.set[cmd.key] = true
		return r.kind == ':' && r.n == c.vals[cmd.key]
	case cmdLPush:
		return r.kind == ':' && r.n == 1
	default: // cmdRPop: empty is a legal answer, the queue is shared
		if r.kind == 0 {
			return true
		}
		return r.kind == '$' && fifo.see(c.id, r.n)
	}
}

// roundTrip writes cmds as one batch and checks their replies. each, if not
// nil, is called as every reply is parsed, with its index and the time.
func (c *client) roundTrip(cmds []srvCmd, fifo *fifoCheck, each func(i int, t int64)) (failed uint64, err error) {
	c.out = c.out[:0]
	for _, cmd := range cmds {
		if cmd.kind == cmdLPush {
			c.out = append(c.out, respFrame("LPUSH", "q", strconv.FormatUint(fifoValue(c.id, c.push), 10))...)
			c.push++
		} else {
			c.out = append(c.out, cmd.wire...)
		}
	}
	c.seq += uint64(len(cmds))
	c.t0 = now()
	if _, err := c.conn.Write(c.out); err != nil {
		return 0, err
	}
	for i, cmd := range cmds {
		r, err := c.readReply()
		if err != nil {
			return failed, err
		}
		if c.spoil && r.kind == '$' {
			r.n, c.spoil = r.n+1, false
		}
		if each != nil {
			each(i, now())
		}
		if !c.check(cmd, r, fifo) {
			failed++
		}
	}
	return failed, nil
}

type srv struct {
	mix     srvMix
	dir     string
	path    string
	st      *serverStore
	ts      *tracedStore // nil in untraced trials
	server  *rserver
	served  chan error
	clients []*client
	script  [][]srvCmd
	fifo    *fifoCheck
	runErr  atomic.Pointer[error]
	win0    [2]float64 // windowStats at the start of the phase
}

// prepareSrv generates each connection's command script from the seed; the
// returned function is the set-up proper.
func prepareSrv(cfg trialCfg) func() (instance, error) {
	s := &srv{mix: srvMixes[cfg.workload], fifo: newFifoCheck(cfg.threads, cfg.threads)}
	perConn := srvKeys / cfg.threads
	rng := rand.New(rand.NewSource(cfg.seed))
	for c := 0; c < cfg.threads; c++ {
		keys := make([]string, perConn)
		for j := range keys {
			keys[j] = srvKey(c, j)
		}
		script := make([]srvCmd, srvScriptLen)
		for i := range script {
			cmd := srvCmd{key: uint16(rng.Intn(perConn))}
			p := rng.Intn(100)
			for k, share := range s.mix.share {
				if p < share {
					cmd.kind = uint8(k)
					break
				}
				p -= share
			}
			switch cmd.kind {
			case cmdSet:
				cmd.arg = uint64(rng.Int63n(1 << 40))
				cmd.wire = respFrame("SET", keys[cmd.key], strconv.FormatUint(cmd.arg, 10))
			case cmdGet:
				cmd.wire = respFrame("GET", keys[cmd.key])
			case cmdIncrBy:
				cmd.arg = uint64(1 + rng.Intn(100))
				cmd.wire = respFrame("INCRBY", keys[cmd.key], strconv.FormatUint(cmd.arg, 10))
			case cmdRPop:
				cmd.wire = respFrame("RPOP", "q")
			}
			script[i] = cmd
		}
		s.script = append(s.script, script)
	}
	return func() (instance, error) { return s.setup(cfg) }
}

func (s *srv) setup(cfg trialCfg) (_ instance, err error) {
	perConn := srvKeys / cfg.threads
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	if s.dir, err = os.MkdirTemp(cfg.outDir, "heap-"); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			s.release()
		}
	}()
	s.path = filepath.Join(s.dir, "store.pmem")
	if s.st, _, err = openStore(s.path); err != nil {
		return nil, err
	}
	var st store = s.st
	if cfg.traced {
		s.ts = newTracedStore(s.st, cfg.threads)
		st = s.ts
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.server = newServer(st)
	s.served = make(chan error, 1)
	go func() { s.served <- s.server.Serve(ln) }()

	// Connections are made one at a time, each confirmed by a PING, so that
	// connection i holds the server's thread id i and the spans of both sides
	// carry the same request ids.
	for c := 0; c < cfg.threads; c++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return nil, err
		}
		cl := &client{
			id: c, conn: conn, br: bufio.NewReaderSize(conn, 1<<16),
			vals: make([]uint64, perConn), set: make([]bool, perConn),
			spoil: corrupt == "reply" && c == 0,
		}
		s.clients = append(s.clients, cl)
		if _, err := conn.Write(respFrame("PING")); err != nil {
			return nil, err
		}
		if r, err := cl.readReply(); err != nil || r.kind != '+' {
			return nil, fmt.Errorf("PING on connection %d: reply %q, %v", c, r.kind, err)
		}
		// Preload every key, in full windows, so measured SETs overwrite.
		for j := 0; j < perConn; j += srvFlushOps {
			var batch []srvCmd
			for k := j; k < min(j+srvFlushOps, perConn); k++ {
				batch = append(batch, srvCmd{kind: cmdSet, key: uint16(k), arg: uint64(k),
					wire: respFrame("SET", srvKey(c, k), strconv.Itoa(k))})
			}
			if failed, err := cl.roundTrip(batch, s.fifo, nil); err != nil || failed > 0 {
				return nil, fmt.Errorf("preload on connection %d: %d wrong replies, %v", c, failed, err)
			}
		}
	}
	return s, nil
}

func (s *srv) heapStats() pmemStats { return s.st.Heap().Stats() }

func (s *srv) begin(traced bool) {
	s.win0[0], s.win0[1] = windowStats(s.server)
	if s.ts != nil {
		s.ts.start(traced)
	}
}

func (s *srv) layer(traced bool, m *measured, out map[string]float64) {
	if !traced {
		windows, ops := windowStats(s.server)
		if windows > s.win0[0] {
			out["server.window_ops_mean"] = (ops - s.win0[1]) / (windows - s.win0[0])
		}
		return
	}
	s.ts.start(false)
	stageNs, flushNs, staged, flushes := s.ts.totals()
	if staged == 0 || flushes == 0 {
		return
	}
	out["server.store_stage_ns"] = stageNs / staged
	out["server.store_flush_us"] = flushNs / flushes / 1e3
	out["server.flushes_per_op"] = flushes / staged
	// What a client waits for is its window: the window's operations are
	// staged, flushed once, and the rest is socket, parse, window wait and
	// reply write.
	window := staged / flushes
	out["server.residual_us"] = m.all.meanUs() - (window*stageNs/staged+flushNs/flushes)/1e3
}

func (s *srv) run(w *worker, ph phase) {
	c, script := s.clients[w.id], s.script[w.id]
	var batch []srvCmd
	var first uint64
	each := func(i int, t int64) {
		k := int(batch[i].kind)
		w.record(ph.traced, srvClasses[k], k, first+uint64(i), c.t0, t)
	}
	for now() < ph.deadline {
		at := int(w.seq % srvScriptLen) // the script is a whole number of batches
		batch, first = script[at:at+s.mix.depth], c.seq
		failed, err := c.roundTrip(batch, s.fifo, each)
		w.failed += failed
		if err != nil {
			// The connection is gone: fail the trial rather than count on.
			w.failed++
			s.runErr.CompareAndSwap(nil, &err)
			return
		}
		w.seq += uint64(len(batch))
		w.ops += uint64(len(batch))
	}
}

func (s *srv) serverRings() []*spanRing { return s.ts.rings }

// release stops the server and the store and removes the heap file.
func (s *srv) release() {
	for _, c := range s.clients {
		c.conn.Close()
	}
	if s.server != nil {
		s.server.Close()
		<-s.served
	}
	if s.st != nil {
		s.st.Close()
	}
	os.RemoveAll(s.dir)
}

// finish restarts the store as an operator would and reads back, from the
// reopened file, every key's last acknowledged value and what the queue holds.
func (s *srv) finish(out map[string]float64) (failed uint64, err error) {
	defer s.release()
	if e := s.runErr.Load(); e != nil {
		return 0, *e
	}
	for _, c := range s.clients {
		c.conn.Close()
	}
	s.server.Close()
	if err := <-s.served; err != nil {
		return 0, fmt.Errorf("serve: %w", err)
	}
	s.server = nil
	if err := s.st.Close(); err != nil {
		return 0, fmt.Errorf("close store: %w", err)
	}
	t0 := now()
	st, restart, err := openStore(s.path)
	s.st = st
	if err != nil {
		return 0, fmt.Errorf("reopen store: %w", err)
	}
	if out != nil {
		out["pcomb.reopen_ms"] = float64(now()-t0) / 1e6
	}
	if !restart {
		failed++
	}
	produced := make([]uint64, len(s.clients))
	for i, c := range s.clients {
		produced[i] = c.push
		for j, want := range c.vals {
			if got, ok := st.Map().Get(0, hashKey(srvKey(i, j))); !ok || got != want {
				failed++
			}
		}
	}
	return failed + s.fifo.final(st.Queue().Snapshot(), produced), nil
}

// tracedStore wraps the store handed to the server and, while on, times
// every staging call and every flush. Each server thread id is written by the
// one connection goroutine bound to it and read between phases.
type tracedStore struct {
	store
	on    atomic.Bool
	tids  []storeTid
	rings []*spanRing
}

type storeTid struct {
	seq      uint64 // store operations staged on this tid since the server started
	winFirst uint64 // seq of the first operation of the open window
	stageNs  int64
	flushNs  int64
	staged   int64
	flushes  int64
	_        [2]uint64
}

func newTracedStore(st store, conns int) *tracedStore {
	t := &tracedStore{store: st, tids: make([]storeTid, st.Threads())}
	for i := 0; i < conns; i++ {
		t.rings = append(t.rings, newSpanRing())
	}
	return t
}

// start zeroes the totals and switches recording on or off.
func (t *tracedStore) start(on bool) {
	if on {
		for i := range t.tids {
			s := &t.tids[i]
			s.stageNs, s.flushNs, s.staged, s.flushes = 0, 0, 0, 0
		}
	}
	t.on.Store(on)
}

func (t *tracedStore) totals() (stageNs, flushNs, staged, flushes float64) {
	for i := range t.tids {
		s := &t.tids[i]
		stageNs += float64(s.stageNs)
		flushNs += float64(s.flushNs)
		staged += float64(s.staged)
		flushes += float64(s.flushes)
	}
	return
}

// enter returns the start time of a call, or -1 while recording is off.
func (t *tracedStore) enter() int64 {
	if t.on.Load() {
		return now()
	}
	return -1
}

func (t *tracedStore) staged(tid int, t0 int64) {
	s := &t.tids[tid]
	if t0 >= 0 {
		t1 := now()
		s.stageNs += t1 - t0
		s.staged++
		t.rings[tid].add(span{Name: "store.stage", Parent: "srv.cmd", Conn: tid, Seq: s.seq, N: 1, Start: t0, End: t1})
	}
	s.seq++
}

func (t *tracedStore) flushed(tid int, t0 int64) {
	s := &t.tids[tid]
	if n := s.seq - s.winFirst; t0 >= 0 && n > 0 {
		t1 := now()
		s.flushNs += t1 - t0
		s.flushes++
		t.rings[tid].add(span{Name: "store.flush", Parent: "srv.cmd", Conn: tid, Seq: s.winFirst, N: int(n), Start: t0, End: t1})
	}
	s.winFirst = s.seq
}

func (t *tracedStore) Get(tid int, key uint64) storeResult {
	t0 := t.enter()
	r := t.store.Get(tid, key)
	t.staged(tid, t0)
	return r
}

func (t *tracedStore) Set(tid int, key, val uint64) storeResult {
	t0 := t.enter()
	r := t.store.Set(tid, key, val)
	t.staged(tid, t0)
	return r
}

func (t *tracedStore) Del(tid int, key uint64) storeResult {
	t0 := t.enter()
	r := t.store.Del(tid, key)
	t.staged(tid, t0)
	return r
}

func (t *tracedStore) IncrBy(tid int, key, delta uint64) storeResult {
	t0 := t.enter()
	r := t.store.IncrBy(tid, key, delta)
	t.staged(tid, t0)
	return r
}

func (t *tracedStore) LPush(tid int, val uint64) storeResult {
	t0 := t.enter()
	r := t.store.LPush(tid, val)
	t.staged(tid, t0)
	return r
}

func (t *tracedStore) RPop(tid int) storeResult {
	t0 := t.enter()
	r := t.store.RPop(tid)
	t.staged(tid, t0)
	return r
}

func (t *tracedStore) Flush(tid int) {
	t0 := t.enter()
	t.store.Flush(tid)
	t.flushed(tid, t0)
}

func (t *tracedStore) Barrier(tid int) {
	t0 := t.enter()
	t.store.Barrier(tid)
	t.flushed(tid, t0)
}

// reconcile joins the two sides' retained spans by request id and, per
// window the server committed, splits what the client waited for into the
// window's staging calls, its flush, and the rest (socket, parse, window
// wait, reply write). Medians do not add up exactly; the line prints by how
// much they miss.
func reconcile(workers []*worker, server []*spanRing) string {
	var client, stage, flush, self, size []float64
	for tid, ring := range server {
		cmds := map[uint64]span{}
		for _, sp := range workers[tid].ring.spans() {
			cmds[sp.Seq] = sp
		}
		stages := map[uint64]int64{}
		var flushes []span
		for _, sp := range ring.spans() {
			if sp.Name == "store.stage" {
				stages[sp.Seq] = sp.End - sp.Start
			} else {
				flushes = append(flushes, sp)
			}
		}
	window:
		for _, f := range flushes {
			first, okF := cmds[f.Seq]
			last, okL := cmds[f.Seq+uint64(f.N)-1]
			if !okF || !okL {
				continue
			}
			var staged int64
			for q := f.Seq; q < f.Seq+uint64(f.N); q++ {
				d, ok := stages[q]
				if !ok {
					continue window
				}
				staged += d
			}
			c, fl := last.End-first.Start, f.End-f.Start
			client = append(client, float64(c)/1e3)
			stage = append(stage, float64(staged)/1e3)
			flush = append(flush, float64(fl)/1e3)
			self = append(self, float64(c-staged-fl)/1e3)
			size = append(size, float64(f.N))
		}
	}
	c, st, fl, se := median(client), median(stage), median(flush), median(self)
	return fmt.Sprintf("reconcile: client window p50 %.2f us = stage %.2f + flush %.2f + residual %.2f + remainder %.2f (%d windows joined, mean %.2f ops)",
		c, st, fl, se, c-st-fl-se, len(client), mean(size))
}
