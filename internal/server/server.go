package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"

	"pcomb/internal/obs"
	"pcomb/internal/vecbatch"
)

// Sentinel results a Store reports through Result.Val. They live at the top
// of the uint64 range, matching the structures' own sentinels (hashmap
// NotFound/Full, queue Empty), so a Store can pass raw results through.
const (
	// NotFound marks an absent key (GET/DEL) or an empty queue (RPOP).
	NotFound = ^uint64(0)
	// Full marks a full map shard (SET/INCRBY).
	Full = ^uint64(0) - 1
	// MaxValue is the largest storable client value: values above it would
	// collide with the structures' sentinel/tombstone space.
	MaxValue = ^uint64(0) - 3
)

// Result is one operation's outcome: either a Future resolved by the
// connection's next Flush (a staged operation), or Val, a read answered from
// the durable state at once.
type Result struct {
	Val    uint64
	Fut    vecbatch.Future
	HasFut bool
}

// Value returns the operation's result, waiting on the Future if one is
// attached. On the batched path callers must Flush first (Wait would flush
// for them, defeating the batch policy).
func (r Result) Value() uint64 {
	if r.HasFut {
		return r.Fut.Wait()
	}
	return r.Val
}

// Store is the durable substrate a Server runs on, with one path whatever its
// durability mode. Implementations stage operations per thread and commit them
// as one window on Flush; a read may instead be answered at once (Result.Val).
// Barrier is the WAIT durability point: afterwards every operation the thread
// had acknowledged is durable. Thread ids index the store's combining slots:
// each connection is bound to one tid for its lifetime. A window's operations
// are applied grouped by the instance they run on, and the queue's enqueues
// and dequeues do not commute, so the server commits its window before staging
// the opposite queue class (map operations mix freely with either).
type Store interface {
	Get(tid int, key uint64) Result
	Set(tid int, key, val uint64) Result      // returns previous value
	Del(tid int, key uint64) Result           // returns removed value or NotFound
	IncrBy(tid int, key, delta uint64) Result // returns the new value
	LPush(tid int, val uint64) Result
	RPop(tid int) Result // returns value or NotFound
	Flush(tid int)
	Barrier(tid int)
	Threads() int
}

// Options tunes a Server; the zero value is sensible.
type Options struct {
	// FlushOps caps a connection's window: the staged operations commit when
	// they reach this many (0 = 16), and otherwise the moment the client has
	// nothing more in flight — before the server would wait on the socket.
	// 1 is the naive flush-per-command baseline.
	FlushOps int
}

func (o Options) withDefaults() Options {
	if o.FlushOps <= 0 {
		o.FlushOps = 16
	}
	return o
}

const (
	idlePoll     = 100 * time.Millisecond // shutdown-check cadence when idle
	frameTimeout = 2 * time.Second        // max time inside one frame
)

// Server accepts RESP connections and runs each on one store thread id.
type Server struct {
	st   Store
	opts Options

	tids  chan int
	quit  chan struct{}
	once  sync.Once
	wg    sync.WaitGroup
	mu    sync.Mutex
	ln    net.Listener
	conns map[net.Conn]struct{}

	// batch records the store-op count of every committed window, per tid:
	// the batch-size distribution under load is the combining-degree signal
	// at the server layer.
	batch *obs.ShardedHist
}

// New creates a Server on st. The store's thread count bounds concurrent
// connections; extra connections are refused with -ERR.
func New(st Store, opts Options) *Server {
	n := st.Threads()
	s := &Server{
		st:    st,
		opts:  opts.withDefaults(),
		tids:  make(chan int, n),
		quit:  make(chan struct{}),
		conns: make(map[net.Conn]struct{}),
		batch: obs.NewShardedHist(n),
	}
	for i := 0; i < n; i++ {
		s.tids <- i
	}
	return s
}

// Start listens on addr and serves in a background goroutine.
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.Serve(ln)
	}()
	return ln.Addr(), nil
}

// Serve accepts connections on ln until Close. It returns nil after Close,
// or the first Accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.closing() {
				return nil
			}
			return err
		}
		select {
		case tid := <-s.tids:
			s.mu.Lock()
			s.conns[conn] = struct{}{}
			s.mu.Unlock()
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.serveConn(conn, tid)
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				s.tids <- tid
			}()
		default:
			bw := bufio.NewWriter(conn)
			writeError(bw, "max number of clients reached")
			bw.Flush()
			conn.Close()
		}
	}
}

// Close stops accepting, wakes every connection (each commits its staged
// window, writes the outstanding replies, and closes), and waits for them.
func (s *Server) Close() error {
	s.once.Do(func() { close(s.quit) })
	s.mu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	for c := range s.conns {
		c.SetReadDeadline(time.Now()) // wake blocked reads immediately
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

func (s *Server) closing() bool {
	select {
	case <-s.quit:
		return true
	default:
		return false
	}
}

// BatchStats snapshots the committed-window size distribution (store ops
// per flush, across all connections).
func (s *Server) BatchStats() *obs.Hist { return s.batch.Snapshot() }

// ---- Connection loop ----

type rkind uint8

const (
	rOK     rkind = iota // +OK, or -ERR when the map was full (SET)
	rBulk                // bulk value, $-1 on NotFound, -ERR on Full
	rInt01               // :1 if a value existed, :0 otherwise (DEL)
	rIntVal              // :value, -ERR on Full (INCRBY)
	rIntOne              // :1 (LPUSH)
	rPong                // +PONG or echo of the PING argument
	rErr                 // -ERR msg, no store operation attached
)

type pendingReply struct {
	k     rkind
	res   Result
	msg   string // rErr message / rPong echo
	store bool   // counts toward the flush-policy op cap
}

type sconn struct {
	srv  *Server
	st   Store
	conn net.Conn
	dec  *Decoder
	bw   *bufio.Writer
	tid  int

	pend   []pendingReply
	nstore int // store ops in pend
	qclass int // queue class staged in the window: 0 none, 1 LPUSH, 2 RPOP

	frame    int       // the decoder frame frameEnd belongs to
	frameEnd time.Time // when the client must have sent the rest of it
}

var errClosing = errors.New("server closing")

func (s *Server) serveConn(conn net.Conn, tid int) {
	defer conn.Close()
	c := &sconn{
		srv:  s,
		st:   s.st,
		conn: conn,
		bw:   bufio.NewWriter(conn),
		tid:  tid,
	}
	c.dec = NewDecoder(bufio.NewReader(c)) // socket reads go through c.Read
	for {
		words, err := c.dec.Read()
		if err != nil {
			// An error that came from the socket found the window already
			// committed, but a framing error can sit in bytes that arrived
			// together with good commands: those are still owed their commit
			// and their replies. Framing is unrecoverable: report it and
			// close. EOF, a frame timeout, shutdown and a failed write just
			// close.
			c.commit()
			if errors.Is(err, ErrProtocol) {
				writeError(c.bw, err.Error())
				c.bw.Flush()
			}
			return
		}
		if c.handle(words[0], words[1:]) != nil {
			return
		}
	}
}

// Read is the connection's only way to the socket, and the window policy:
// the decoder comes here exactly when it has used up every byte the client
// has sent, so the window commits now — one store flush, every owed reply,
// one write — rather than after a wait. No window is ever open while the
// server blocks, whether between frames or inside one, and no reply waits on
// bytes the client has not sent. A pipelining client still fills its window,
// because its commands arrive together and are decoded from the buffer
// without coming back here.
//
// Between frames the read polls for shutdown every idlePoll; inside a frame
// the client has frameTimeout, counted from the frame's first blocking read,
// to send the rest.
func (c *sconn) Read(p []byte) (int, error) {
	if err := c.commit(); err != nil {
		return 0, err
	}
	for {
		deadline := time.Now().Add(idlePoll)
		if c.dec.inFrame {
			if c.frame != c.dec.frames {
				c.frame, c.frameEnd = c.dec.frames, time.Now().Add(frameTimeout)
			}
			deadline = c.frameEnd
		}
		c.conn.SetReadDeadline(deadline)
		// Close sets quit and then an immediate deadline. Checking after
		// arming means either this sees quit, or Close's deadline lands
		// after ours and wakes the read.
		if c.srv.closing() {
			return 0, errClosing
		}
		n, err := c.conn.Read(p)
		if ne, ok := err.(net.Error); ok && ne.Timeout() && n == 0 && !c.dec.inFrame {
			continue // idle: poll again
		}
		return n, err
	}
}

// handle dispatches one command and applies the size cap. A non-nil error
// means the connection is unusable (write failure).
func (c *sconn) handle(name []byte, args [][]byte) error {
	commitNow, err := c.dispatch(name, args)
	if err != nil {
		return err
	}
	if commitNow || c.nstore >= c.srv.opts.FlushOps {
		return c.commit()
	}
	return nil
}

// dispatch stages one command's store operation and queues its reply.
// commitNow requests an immediate window commit (control commands and
// errors; the FlushOps cap is handle's). The switch is the served command
// set; it compares the name where the decoder left it.
func (c *sconn) dispatch(name []byte, args [][]byte) (commitNow bool, err error) {
	switch string(name) {
	case "PING":
		if len(args) > 1 {
			return true, c.argErr(name)
		}
		msg := ""
		if len(args) == 1 {
			msg = string(args[0])
		}
		c.push(pendingReply{k: rPong, msg: msg})
		return true, nil

	case "GET":
		if len(args) != 1 {
			return true, c.argErr(name)
		}
		c.pushStore(rBulk, c.st.Get(c.tid, hashKey(args[0])))
		return false, nil

	case "SET", "GETSET":
		if len(args) != 2 {
			return true, c.argErr(name)
		}
		v, ok := parseValue(args[1])
		if !ok {
			return true, c.pushErr("value is not an integer or out of range")
		}
		k := rOK
		if string(name) == "GETSET" {
			k = rBulk
		}
		c.pushStore(k, c.st.Set(c.tid, hashKey(args[0]), v))
		return false, nil

	case "DEL", "GETDEL":
		if len(args) != 1 {
			return true, c.argErr(name)
		}
		k := rInt01
		if string(name) == "GETDEL" {
			k = rBulk
		}
		c.pushStore(k, c.st.Del(c.tid, hashKey(args[0])))
		return false, nil

	case "INCRBY":
		if len(args) != 2 {
			return true, c.argErr(name)
		}
		d, ok := parseDelta(args[1])
		if !ok {
			return true, c.pushErr("value is not an integer or out of range")
		}
		c.pushStore(rIntVal, c.st.IncrBy(c.tid, hashKey(args[0]), d))
		return false, nil

	case "LPUSH":
		if len(args) != 2 {
			return true, c.argErr(name)
		}
		v, ok := parseValue(args[1])
		if !ok {
			return true, c.pushErr("value is not an integer or out of range")
		}
		if err := c.queueClass(1); err != nil {
			return false, err
		}
		c.pushStore(rIntOne, c.st.LPush(c.tid, v))
		return false, nil

	case "RPOP":
		if len(args) != 1 {
			return true, c.argErr(name)
		}
		if err := c.queueClass(2); err != nil {
			return false, err
		}
		c.pushStore(rBulk, c.st.RPop(c.tid))
		return false, nil

	case "WAIT":
		if len(args) > 2 {
			return true, c.argErr(name)
		}
		// Settle the window first so WAIT's durability point covers every
		// previously acknowledged operation of this connection.
		if err := c.commit(); err != nil {
			return false, err
		}
		c.st.Barrier(c.tid)
		writeInt(c.bw, 1)
		return false, c.bw.Flush()

	default:
		return true, c.pushErr(fmt.Sprintf("unknown command '%s'", name))
	}
}

func (c *sconn) push(p pendingReply) {
	c.pend = append(c.pend, p)
}

func (c *sconn) pushStore(k rkind, res Result) {
	c.pend = append(c.pend, pendingReply{k: k, res: res, store: true})
	c.nstore++
}

// queueClass makes class the window's queue class, committing the window
// first when it holds the opposite one: a window's enqueues and dequeues would
// not apply in program order (see Store).
func (c *sconn) queueClass(class int) error {
	if c.qclass != 0 && c.qclass != class {
		if err := c.commit(); err != nil {
			return err
		}
	}
	c.qclass = class
	return nil
}

func (c *sconn) pushErr(msg string) error {
	c.push(pendingReply{k: rErr, msg: msg})
	return nil
}

func (c *sconn) argErr(name []byte) error {
	return c.pushErr(fmt.Sprintf("wrong number of arguments for '%s' command", name))
}

// commit flushes the connection's staged store operations and writes every
// queued reply in order — the window's single durability-and-reply point on
// the batched path.
func (c *sconn) commit() error {
	if len(c.pend) == 0 {
		return nil
	}
	c.st.Flush(c.tid)
	for i := range c.pend {
		p := &c.pend[i]
		switch p.k {
		case rOK:
			if p.res.Value() == Full {
				writeError(c.bw, "map full")
			} else {
				writeSimple(c.bw, "OK")
			}
		case rBulk:
			switch v := p.res.Value(); v {
			case NotFound:
				writeNull(c.bw)
			case Full:
				writeError(c.bw, "map full")
			default:
				writeBulkUint(c.bw, v)
			}
		case rInt01:
			if p.res.Value() == NotFound {
				writeInt(c.bw, 0)
			} else {
				writeInt(c.bw, 1)
			}
		case rIntVal:
			if v := p.res.Value(); v == Full {
				writeError(c.bw, "map full")
			} else {
				writeInt(c.bw, v)
			}
		case rIntOne:
			p.res.Value() // settle the future
			writeInt(c.bw, 1)
		case rPong:
			if p.msg == "" {
				writeSimple(c.bw, "PONG")
			} else {
				writeSimple(c.bw, p.msg)
			}
		case rErr:
			writeError(c.bw, p.msg)
		}
	}
	if c.nstore > 0 {
		c.srv.batch.Record(c.tid, uint64(c.nstore))
	}
	c.pend = c.pend[:0]
	c.nstore = 0
	c.qclass = 0
	return c.bw.Flush()
}

// ---- Key and value encoding ----

// HashKey maps an arbitrary client key to the map's key domain [1, 2^64-3]
// (FNV-64a folded away from zero and the sentinel space). Distinct keys may
// collide, as in any fixed-width hash addressing.
func HashKey(key string) uint64 { return hashKey(key) }

// hashKey is HashKey over either form a key arrives in; a decoded argument
// is hashed where it lies.
func hashKey[K string | []byte](key K) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return h%(^uint64(0)-3) + 1
}

// parseValue decodes a client value: an unsigned decimal below the sentinel
// space (values are uint64 words end to end).
func parseValue(b []byte) (uint64, bool) {
	v, err := strconv.ParseUint(string(b), 10, 64)
	if err != nil || v > MaxValue {
		return 0, false
	}
	return v, true
}

// parseDelta decodes an INCRBY delta: a signed decimal carried as its
// two's-complement uint64 (the map's fetch&add interprets it mod 2^64).
func parseDelta(b []byte) (uint64, bool) {
	d, err := strconv.ParseInt(string(b), 10, 64)
	if err != nil {
		return 0, false
	}
	return uint64(d), true
}
