package crashtest

// Server kill targets: the full RESP stack under real SIGKILLs. The child
// process runs an in-process pcomb-server on a loopback socket plus one TCP
// client per journal thread; every command is journaled (Begin before the
// bytes leave the client, End when its reply is parsed), so the verifier can
// rebuild the round's history from the file alone and hold the server to
// durable linearizability: every acknowledged reply in strict mode — and
// every reply acknowledged before a WAIT-forced epoch close in epoch mode —
// must survive the kill.
//
// Thread geometry: each journal thread owns one client connection, and the
// server binds each connection to one combining tid for its lifetime — but
// accept order decides WHICH tid, so the verifier cannot assume journal
// thread k maps to server tid k. Key ownership does the translation: client
// k only touches keys named "k<k>.<r>", so any key hash identifies its
// owner. With one map shard, a server tid's interrupted flush window is one
// vectorized group in submission order, which must match a contiguous run
// of the owning client's open journal records.

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strconv"
	"sync"

	"pcomb"
	"pcomb/internal/hashmap"
	lin "pcomb/internal/linearizability"
	"pcomb/internal/pmem"
	"pcomb/internal/server"
)

const (
	srvKillFlushOps = 4  // server batch window (part of the strict layout)
	srvKillKeys     = 12 // per-client key window
	srvKillDepth    = 3  // client pipeline depth (unread replies in flight)
)

type srvKT struct {
	kind  pcomb.Kind
	epoch bool
	name  string
	n     int
	st    *pcomb.ServerStore

	// stamp is the durable epoch stamp found at attach — the crash cut for
	// this process lifetime's verification (epoch target only).
	stamp uint64

	// Child-process side: lazily started server + one client per thread.
	start    sync.Once
	startErr error
	srv      *server.Server
	conns    []*srvKTConn
}

// srvKTConn is one journal thread's client connection (used only by that
// thread's goroutine).
type srvKTConn struct {
	c   net.Conn
	br  *bufio.Reader
	bw  *bufio.Writer
	out []srvKTPending // FIFO of sent-but-unread commands
}

// srvKTPending tracks one in-flight command; idx < 0 marks an unjournaled
// WAIT.
type srvKTPending struct {
	idx  int
	kind uint64
}

func (t *srvKT) Name() string { return t.name }

func (t *srvKT) storeOpts(n int) pcomb.ServerOptions {
	return pcomb.ServerOptions{
		Threads:  n,
		Kind:     t.kind,
		FlushOps: srvKillFlushOps,
		Epoch:    t.epoch,
		// One shard: a flush window is one vectorized group, so a kill
		// interrupts at most one contiguous run of some client's commands.
		MapShards:   1,
		MapCapacity: 1024,
		// The queue is part of the store but the workload never touches it;
		// the arena still needs one chunk per thread at construction.
		QueueCapacity: 1 << 14,
	}
}

func (t *srvKT) Attach(h *pmem.Heap, n int) {
	t.n = n
	t.st = pcomb.NewServerStoreOn(h, t.storeOpts(n))
	if t.epoch {
		t.stamp = t.st.Map().EpochClosed()
	}
}

// startChild brings up the in-process server and dials one connection per
// thread (child side only, first Step).
func (t *srvKT) startChild() {
	t.srv = server.New(t.st, server.Options{FlushOps: srvKillFlushOps})
	addr, err := t.srv.Start("127.0.0.1:0")
	if err != nil {
		t.startErr = err
		return
	}
	t.conns = make([]*srvKTConn, t.n)
	for i := range t.conns {
		c, err := net.Dial("tcp", addr.String())
		if err != nil {
			t.startErr = err
			return
		}
		t.conns[i] = &srvKTConn{c: c, br: bufio.NewReader(c), bw: bufio.NewWriter(c)}
	}
}

// srvKey names client tid's r-th key; its hash is the journal/history key.
func srvKey(tid, r int) string { return fmt.Sprintf("k%d.%d", tid, r) }

func (t *srvKT) Step(j *Journal, tid, i int, round uint64, rng *rand.Rand) {
	t.start.Do(t.startChild)
	if t.startErr != nil {
		panic(fmt.Sprintf("srv kill child: %v", t.startErr))
	}
	c := t.conns[tid]

	r := rng.Intn(16)
	if r < 2 {
		// WAIT: the durability barrier (and, in epoch mode, the only epoch
		// close — no background ticker, so the kill schedule decides which
		// epochs close). Unjournaled: it has no model effect.
		sendCmd(c.bw, "WAIT", "0", "0")
		c.out = append(c.out, srvKTPending{idx: -1})
	} else {
		key := srvKey(tid, rng.Intn(srvKillKeys))
		khash := server.HashKey(key)
		switch {
		case r < 9: // GETSET: a put whose reply carries the previous value
			val := (round+1)<<32 | uint64(tid)<<24 | uint64(i) + 1
			_, idx := j.Begin(tid, 0, hashmap.OpPut, khash, val)
			sendCmd(c.bw, "GETSET", key, strconv.FormatUint(val, 10))
			c.out = append(c.out, srvKTPending{idx: idx, kind: hashmap.OpPut})
		case r < 11: // INCRBY: fetch&add (small delta; sums stay well below the sentinels)
			delta := uint64(rng.Intn(1000) + 1)
			_, idx := j.Begin(tid, 0, hashmap.OpAdd, khash, delta)
			sendCmd(c.bw, "INCRBY", key, strconv.FormatUint(delta, 10))
			c.out = append(c.out, srvKTPending{idx: idx, kind: hashmap.OpAdd})
		case r < 13: // GETDEL: a delete whose reply carries the removed value
			_, idx := j.Begin(tid, 0, hashmap.OpDel, khash, 0)
			sendCmd(c.bw, "GETDEL", key)
			c.out = append(c.out, srvKTPending{idx: idx, kind: hashmap.OpDel})
		default: // GET
			_, idx := j.Begin(tid, 0, hashmap.OpGet, khash, 0)
			sendCmd(c.bw, "GET", key)
			c.out = append(c.out, srvKTPending{idx: idx, kind: hashmap.OpGet})
		}
	}
	if err := c.bw.Flush(); err != nil {
		panic(fmt.Sprintf("srv kill child: send: %v", err))
	}
	for len(c.out) > srvKillDepth {
		t.readReply(j, tid, c)
	}
}

// readReply consumes the oldest in-flight command's reply and journals its
// response.
func (t *srvKT) readReply(j *Journal, tid int, c *srvKTConn) {
	out, err := readRESPValue(c.br)
	if err != nil {
		panic(fmt.Sprintf("srv kill child: reply: %v", err))
	}
	p := c.out[0]
	c.out = c.out[1:]
	if p.idx < 0 {
		return // WAIT acknowledged
	}
	if t.epoch {
		j.EndEpoch(tid, p.idx, out, t.st.Map().EpochNow())
		return
	}
	j.End(tid, p.idx, out)
}

// sendCmd stages one RESP array command.
func sendCmd(bw *bufio.Writer, args ...string) {
	fmt.Fprintf(bw, "*%d\r\n", len(args))
	for _, a := range args {
		fmt.Fprintf(bw, "$%d\r\n%s\r\n", len(a), a)
	}
}

// readRESPValue decodes one server reply into the journal's output word:
// integers and decimal bulks parse to their value, the null bulk is the
// absent sentinel, and error replies fail the child (the workload never
// provokes one).
func readRESPValue(br *bufio.Reader) (uint64, error) {
	line, err := br.ReadString('\n')
	if err != nil {
		return 0, err
	}
	if len(line) < 3 {
		return 0, fmt.Errorf("short reply %q", line)
	}
	body := line[1 : len(line)-2]
	switch line[0] {
	case ':':
		return strconv.ParseUint(body, 10, 64)
	case '+':
		return 0, nil
	case '$':
		n, err := strconv.Atoi(body)
		if err != nil {
			return 0, err
		}
		if n < 0 {
			return lin.EmptyOut, nil // null bulk: key absent / queue empty
		}
		buf := make([]byte, n+2)
		if _, err := io.ReadFull(br, buf); err != nil {
			return 0, err
		}
		return strconv.ParseUint(string(buf[:n]), 10, 64)
	case '-':
		return 0, fmt.Errorf("error reply %q", body)
	}
	return 0, fmt.Errorf("unexpected reply %q", line)
}

// keyOwners maps every key hash a client can touch to its owning journal
// thread.
func (t *srvKT) keyOwners() map[uint64]int {
	owners := make(map[uint64]int, t.n*srvKillKeys)
	for tid := 0; tid < t.n; tid++ {
		for r := 0; r < srvKillKeys; r++ {
			owners[server.HashKey(srvKey(tid, r))] = tid
		}
	}
	return owners
}

// Resolve runs once (on the tid 0 call): server tids and journal threads are
// decoupled by accept order, so the pass walks every server tid's recovery
// and routes each recovered operation to the owning client's journal records
// by key ownership.
func (t *srvKT) Resolve(j *Journal, tid int) error {
	if tid != 0 {
		return nil
	}
	if t.epoch {
		// Pin the crash-cut stamp BEFORE recovery closes any epoch (see
		// queueKT.Resolve).
		t.stamp = j.EpochCut(t.stamp)
		return t.resolveEpoch(j)
	}
	owners := t.keyOwners()
	for stid := 0; stid < t.n; stid++ {
		if ops := t.st.Queue().Recover(stid); len(ops) > 0 {
			return fmt.Errorf("%s: server tid %d has %d pending queue ops (workload sends none)",
				t.name, stid, len(ops))
		}
		recops := t.st.Map().Recover(stid)
		if len(recops) == 0 {
			continue
		}
		ctid, ok := owners[recops[0].A0]
		if !ok {
			return fmt.Errorf("%s: recovered key %#x has no owner", t.name, recops[0].A0)
		}
		// The interrupted window must be a contiguous run of the owning
		// client's open records (older open records are completed flushes
		// whose replies died in flight; newer ones never reached the pipe).
		var open []KillRec
		for _, rec := range j.Records(ctid) {
			if rec.State == recOpen {
				open = append(open, rec)
			}
		}
		start := -1
		for s := 0; s+len(recops) <= len(open); s++ {
			match := true
			for k, ro := range recops {
				if ro.A0 != recops[0].A0 && owners[ro.A0] != ctid {
					return fmt.Errorf("%s: server tid %d window mixes clients %d and %d",
						t.name, stid, ctid, owners[ro.A0])
				}
				rec := open[s+k]
				if rec.Kind != ro.Op || rec.A0 != ro.A0 || rec.A1 != ro.A1 {
					match = false
					break
				}
			}
			if match {
				start = s
				break
			}
		}
		if start < 0 {
			return fmt.Errorf("%s: server tid %d: recovered window (%d ops) matches no run of client %d's %d open records",
				t.name, stid, len(recops), ctid, len(open))
		}
		for k, ro := range recops {
			j.MarkRecovered(ctid, open[start+k].Idx, ro.Result)
		}
	}
	return nil
}

// resolveEpoch is the epoch-mode pass: scalar recovery per server tid, with
// parity-certain re-performs routed to the owning client's first matching
// open record; ambiguous records stay open (effect durable or vanished —
// the checker decides).
func (t *srvKT) resolveEpoch(j *Journal) error {
	owners := t.keyOwners()
	for stid := 0; stid < t.n; stid++ {
		t.st.Queue().Recover(stid)
		rs := t.st.Map().Recover(stid)
		if len(rs) == 0 || !rs[0].Certain {
			continue
		}
		op, key, result := rs[0].Op, rs[0].A0, rs[0].Result
		ctid, ok := owners[key]
		if !ok {
			return fmt.Errorf("%s: recovered key %#x has no owner", t.name, key)
		}
		marked := false
		for _, rec := range j.Records(ctid) {
			if rec.State == recOpen && rec.Kind == op && rec.A0 == key {
				j.MarkRecovered(ctid, rec.Idx, result)
				marked = true
				break
			}
		}
		if !marked {
			return fmt.Errorf("%s: server tid %d re-performed (%d,%#x) but client %d has no matching open record",
				t.name, stid, op, key, ctid)
		}
	}
	t.st.Map().Sync()
	t.st.Queue().Sync()
	return nil
}

func (t *srvKT) Verify(j *Journal, initial []uint64, opts DurLinOpts) (bool, error) {
	opts = durLinDefaults(opts)
	hist := killHistory(j, t.n, t.stamp)
	initVals := map[uint64]uint64{}
	for i := 0; i+1 < len(initial); i += 2 {
		initVals[initial[i]] = initial[i+1]
	}
	final := map[uint64]uint64{}
	t.st.Map().Range(func(k, v uint64) bool {
		final[k] = v
		return true
	})
	touched := map[uint64]bool{}
	for _, op := range hist {
		touched[op.Arg] = true
	}
	var audits []lin.Op
	for k := range touched {
		out := lin.EmptyOut
		if v, ok := final[k]; ok {
			out = v
		}
		audits = append(audits, lin.Op{Kind: lin.KindGet, Arg: k, Out: out})
	}
	if len(hist)+len(audits) > opts.MaxOps {
		return false, nil
	}
	hist = lin.AppendAudits(hist, audits...)
	res := lin.CheckDurablePartitioned(func(class uint64) lin.Model {
		init := lin.EmptyOut
		if v, ok := initVals[class]; ok {
			init = v
		}
		return lin.MapKeyModel{Initial: init}
	}, func(op lin.Op) uint64 { return op.Arg }, hist, lin.Opts{Budget: opts.Budget})
	return killVerdict(res)
}

func (t *srvKT) Snapshot() []uint64 {
	var out []uint64
	t.st.Map().Range(func(k, v uint64) bool {
		out = append(out, k, v)
		return true
	})
	return out
}
