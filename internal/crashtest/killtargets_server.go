package crashtest

// Server kill targets: the full RESP stack under real SIGKILLs. The child
// process runs an in-process pcomb-server on a loopback socket plus one TCP
// client per journal thread; every command is journaled by the client (Begin
// before the bytes leave it, End when its reply is parsed — the store's own
// system area journals nothing), so the verifier can rebuild the round's
// history from the file alone and hold the server to durable linearizability:
// every acknowledged reply in strict mode — and every reply acknowledged
// before a WAIT-forced epoch close in epoch mode — must survive the kill.
// Only the client and the matching of recovered windows to its records are
// particular to the server; model, audit and verdict are the map Spec's.
//
// Thread geometry: each journal thread owns one client connection, and the
// server binds each connection to one combining tid for its lifetime — but
// accept order decides WHICH tid, so the verifier cannot assume journal
// thread k maps to server tid k. Key ownership does the translation: client
// k only touches keys named "k<k>.<r>", so any key hash identifies its
// owner. The server stages and commits a connection's commands in the same
// windows in both durability modes, and its map is one combining instance, so
// the store's one recovery reports a server tid's interrupted window as one
// map group in submission order, which must match a contiguous run of the
// owning client's open journal records — one matcher for both modes. The
// epoch rule only narrows what the match may claim: an operation recovery
// could not tell applied from lost stays open. A GET answered as a read of the
// durable state is in no window, and it is answered that way only while
// nothing is staged, so it can precede a window's staged operations but never
// fall among them.

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"

	"pcomb"
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
	specKT
	epoch bool
	st    *pcomb.ServerStore

	// Child-process side: lazily started server + one client per thread.
	start    sync.Once
	startErr error
	srv      *server.Server
	conns    []*srvKTConn
}

// srvKTConn is one journal thread's client connection (used only by that
// thread's goroutine). journaled is the FIFO of sent-but-unread commands:
// false marks a WAIT, which has no record.
type srvKTConn struct {
	c         net.Conn
	br        *bufio.Reader
	bw        *bufio.Writer
	journaled []bool
}

func newSrvKT(kind pcomb.Kind, epoch bool) *srvKT {
	t := &srvKT{epoch: epoch}
	t.sp = &Spec{
		Name: "srv/" + pfx(kind) + "srv" + tag(epoch, "-epoch"),
		Open: func(h *pmem.Heap, n int) Handle {
			t.st = pcomb.NewServerStoreOn(h, pcomb.ServerOptions{
				Threads:     n,
				Kind:        kind,
				FlushOps:    srvKillFlushOps,
				Epoch:       epoch,
				MapCapacity: 1024,
				// The queue is part of the store but the workload never touches it;
				// the arena still needs one chunk per thread at construction.
				QueueCapacity: 1 << 14,
			})
			return t.st.Map()
		},
		State: func() []uint64 { return pairs(t.st.Map().Range) },
		Model: mapModel,
	}
	if epoch {
		t.sp.Stamp = func() uint64 { return t.st.Map().EpochClosed() }
	}
	return t
}

// Attach leaves the store's history log alone: the client journals.
func (t *srvKT) Attach(h *pmem.Heap, n int, j *Journal) {
	t.n, t.j = n, j
	t.h = t.sp.Open(h, n)
	if t.epoch {
		j.SetEpochClock(t.st.Map().EpochNow)
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

func (t *srvKT) Step(g *gen) {
	t.start.Do(t.startChild)
	if t.startErr != nil {
		panic(fmt.Sprintf("srv kill child: %v", t.startErr))
	}
	c := t.conns[g.tid]

	// send journals one command (before its bytes leave) and stages it.
	send := func(kind uint64, val uint64, name string, args ...string) {
		key := srvKey(g.tid, g.Intn(srvKillKeys))
		t.j.Begin(g.tid, kind, server.HashKey(key), val)
		sendCmd(c.bw, append([]string{name, key}, args...)...)
		c.journaled = append(c.journaled, true)
	}
	switch r := g.Intn(16); {
	case r < 2:
		// WAIT: the durability barrier (and, in epoch mode, the only epoch
		// close — no background ticker, so the kill schedule decides which
		// epochs close). Unjournaled: it has no model effect.
		sendCmd(c.bw, "WAIT", "0", "0")
		c.journaled = append(c.journaled, false)
	case r < 9: // GETSET: a put whose reply carries the previous value
		send(pcomb.OpPut, g.val(), "GETSET", strconv.FormatUint(g.val(), 10))
	case r < 11: // INCRBY: fetch&add (small delta; sums stay well below the sentinels)
		delta := uint64(g.Intn(1000) + 1)
		send(pcomb.OpAdd, delta, "INCRBY", strconv.FormatUint(delta, 10))
	case r < 13: // GETDEL: a delete whose reply carries the removed value
		send(pcomb.OpDelete, 0, "GETDEL")
	default:
		send(pcomb.OpGet, 0, "GET")
	}
	if err := c.bw.Flush(); err != nil {
		panic(fmt.Sprintf("srv kill child: send: %v", err))
	}
	for len(c.journaled) > srvKillDepth {
		out, err := readRESPValue(c.br)
		if err != nil {
			panic(fmt.Sprintf("srv kill child: reply: %v", err))
		}
		// Replies come in command order, so this one answers the client's
		// oldest open record — unless it acknowledges a WAIT.
		if c.journaled[0] {
			t.j.End(g.tid, out)
		}
		c.journaled = c.journaled[1:]
	}
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

// Recover runs the store's one recovery and routes each recovered operation
// to the owning client's journal records by key ownership: server tids and
// journal threads are decoupled by accept order. Only a Certain operation is
// marked recovered: under an epoch an uncertain one stays open, applied or
// lost like the rest of the open epoch.
func (t *srvKT) Recover() error {
	j := t.j
	// The crash cut comes first: recovery closes the epoch.
	j.Cut(t.sp.stamp())
	owners := t.keyOwners()
	for stid, recops := range t.st.Recover() {
		if len(recops) == 0 {
			continue
		}
		for _, ro := range recops {
			if ro.Class != 0 { // class 0 is the map's; the workload sends no queue ops
				return fmt.Errorf("%s: server tid %d recovered %+v on class %d, not the map's",
					t.sp.Name, stid, ro, ro.Class)
			}
		}
		ctid, ok := owners[recops[0].A0]
		if !ok {
			return fmt.Errorf("%s: recovered key %#x has no owner", t.sp.Name, recops[0].A0)
		}
		// The interrupted window must be a contiguous run of the owning
		// client's open records (older open records are completed windows
		// whose replies died in flight, or reads; newer ones never reached the
		// pipe).
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
						t.sp.Name, stid, ctid, owners[ro.A0])
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
				t.sp.Name, stid, len(recops), ctid, len(open))
		}
		for k, ro := range recops {
			if ro.Certain {
				j.MarkRecovered(ctid, open[start+k].Idx, ro.Result)
			}
		}
	}
	return nil
}
