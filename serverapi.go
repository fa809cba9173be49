package pcomb

import (
	"time"

	"pcomb/internal/hashmap"
	"pcomb/internal/pmem"
	"pcomb/internal/queue"
	"pcomb/internal/server"
	"pcomb/internal/sysarea"
)

// SyncMode selects how a file-backed store's fence-ordered write-backs
// reach storage (re-exported from the persistence substrate).
type SyncMode = pmem.SyncMode

// Sync modes for ServerOptions.Sync.
const (
	// SyncNone: durable against process death (page cache), not machine
	// failure.
	SyncNone = pmem.SyncNone
	// SyncAsync: asynchronous write-back at each fence.
	SyncAsync = pmem.SyncAsync
	// SyncFence: blocking write-back at each fence (power-failure grade).
	SyncFence = pmem.SyncFence
)

// ParseSyncMode parses "none", "async" or "fence".
func ParseSyncMode(s string) (SyncMode, bool) { return pmem.ParseSyncMode(s) }

// ServerOptions configures a durable RESP server store: a recoverable hash map
// (GET/SET/GETSET/DEL/GETDEL/INCRBY) and FIFO queue (LPUSH/RPOP) on a
// file-backed heap, committed in per-connection windows. The zero value is
// sensible.
type ServerOptions struct {
	// Path is the backing file (OpenServerStore only).
	Path string
	// Threads is the maximum number of concurrent connections; each
	// connection binds one combining thread id (0 = 16).
	Threads int
	// Kind selects the combining protocol (Blocking = PBcomb is the
	// default).
	Kind Kind
	// FlushOps sizes the per-connection batch window: the server commits a
	// connection's staged vector when it reaches FlushOps operations, or
	// sooner, the moment the client has nothing more in flight — a window is
	// never held open while the server waits on the socket (0 = 16; 1 =
	// naive flush-per-command). Part of the persistent layout in both
	// modes — re-open with the same value.
	FlushOps int
	// Epoch switches the store to epoch-mode relaxed durability (group
	// commit). The map and the queue share the store's one epoch, with one
	// background closer. Commands are staged and committed in the same windows
	// as in strict mode, and a window's replies leave at its commit; the
	// commit applies the window without waiting for persistence, and the
	// window becomes durable at the next epoch close — by the closer, or
	// forced by WAIT. A crash may lose only the open epoch, and it cuts both
	// structures at the same point. Part of the persistent layout.
	Epoch bool
	// EpochInterval is the background close cadence (Epoch mode; 0 = close
	// only on WAIT/Sync).
	EpochInterval time.Duration
	// MapCapacity is the map's slot count (0 = 512); a SET or INCRBY of a
	// new key beyond it is refused. The map is one combining instance, not
	// shards, so a window's map operations are one round, and windows of
	// different connections meet in it, where one combiner serves them
	// together. Part of the persistent layout.
	MapCapacity int
	// QueueCapacity sizes the queue's node arena (0 = package default).
	QueueCapacity int
	// Sync selects the file store's msync behavior on fences.
	Sync SyncMode
	// NoCost disables the calibrated CPU cost of persistence instructions
	// (tests and kill harnesses).
	NoCost bool
}

func (o ServerOptions) withDefaults() ServerOptions {
	if o.Threads <= 0 {
		o.Threads = 16
	}
	if o.FlushOps <= 0 {
		o.FlushOps = 16
	}
	if o.MapCapacity <= 0 {
		o.MapCapacity = 512
	}
	return o
}

// The server store's system-area classes.
const (
	srvMap = iota // the map's one combining instance
	srvEnq        // the queue's enqueues
	srvDeq        // the queue's dequeues
)

// ServerStore is the RESP server's durable store (internal/server's Store
// contract): a recoverable hash map and FIFO queue on one system area and, in
// epoch mode, one epoch. Every command is staged on the area's window, and
// Flush commits the connection's window as one record whatever it touches: one
// vectorized round per instance, all or nothing after a crash. A GET with
// nothing staged is a validated read of the durable state. A committed window
// is durable at its Flush (strict), or at the next close of the one epoch,
// which Barrier/WAIT forces: a crash keeps a prefix of every connection's
// windows, map and queue alike.
type ServerStore struct {
	sys   *sysarea.Area // classes srvMap, srvEnq, srvDeq; its epoch is nil in strict mode
	m     *Map
	q     *Queue
	h     *pmem.Heap
	opts  ServerOptions
	owned bool         // Close also closes the heap (OpenServerStore)
	rec   [][]Resolved // what OpenServerStore's Recover resolved
}

var _ server.Store = (*ServerStore)(nil)

// NewServerStoreOn builds (or, after a restart, re-attaches) the server's
// structures on an existing heap without running recovery — callers that
// need to inspect interrupted windows (the kill harness) recover
// themselves; everyone else uses OpenServerStore.
func NewServerStoreOn(h *pmem.Heap, o ServerOptions) *ServerStore {
	o = o.withDefaults()
	var ep *pmem.Epoch
	if o.Epoch {
		ep = pmem.NewEpoch(h, "srv", pmem.EpochOpts{Interval: o.EpochInterval})
	}
	// One extra slot keeps a full window from auto-flushing before the
	// server's own commit point, so each window is one record.
	vcap := o.FlushOps + 1
	sys := sysarea.New(h, "srv/sysarea", o.Threads, 3, o.Kind, ep, vcap)
	q := queue.NewOn(h, "srv/q", o.Threads, o.Kind,
		queue.Options{Recycling: o.Kind == Blocking, Capacity: o.QueueCapacity}, sys, srvEnq)
	m := hashmap.NewOn(h, "srv/map", o.Threads, o.Kind,
		hashmap.Options{Shards: 1, Capacity: o.MapCapacity}, sys)
	return &ServerStore{sys: sys, m: m, q: q, h: h, opts: o}
}

// OpenServerStore opens (creating if absent) a file-backed server store and
// — on restart — resolves every thread's interrupted window (Recovered keeps
// the table). restart reports whether an existing file was re-attached.
func OpenServerStore(o ServerOptions) (s *ServerStore, restart bool, err error) {
	o = o.withDefaults()
	h, restart, err := pmem.OpenFile(o.Path, pmem.FileOpts{Sync: o.Sync, Cfg: pmem.Config{NoCost: o.NoCost}})
	if err != nil {
		return nil, false, err
	}
	s = NewServerStoreOn(h, o)
	s.owned = true
	if restart {
		s.rec = s.Recover()
	}
	return s, restart, nil
}

// Recover resolves every thread's interrupted window after a restart and
// returns what it resolved, per thread id (nil where nothing was in flight;
// each entry's Class tells a map operation from a queue one), then makes the
// recovered state durable (an epoch close; nothing to do in strict mode).
func (s *ServerStore) Recover() [][]Resolved {
	out := make([][]Resolved, s.opts.Threads)
	for tid := range out {
		out[tid] = s.sys.Recover(tid)
	}
	s.sys.Epoch().CloseNow()
	return out
}

// Recovered returns what OpenServerStore's recovery resolved, per thread id
// (nil on a fresh file).
func (s *ServerStore) Recovered() [][]Resolved { return s.rec }

// Map exposes the underlying map (recovery inspection, history recording).
// It shares the store's system area: its Recover and Sync act on the whole
// store.
func (s *ServerStore) Map() *Map { return s.m }

// Queue exposes the underlying queue, as Map.
func (s *ServerStore) Queue() *Queue { return s.q }

// Heap exposes the backing heap (persistence-instruction counters).
func (s *ServerStore) Heap() *pmem.Heap { return s.h }

// Close stops the epoch closer (after a final close; strict mode has none)
// and, when the store owns its heap, closes the backing file.
func (s *ServerStore) Close() error {
	s.sys.Epoch().Stop()
	if s.owned {
		return s.h.Close()
	}
	return nil
}

// ---- server.Store ----

// stage puts one operation of class on tid's window.
func (s *ServerStore) stage(tid, class int, op, a0, a1 uint64) server.Result {
	return server.Result{Fut: s.sys.Submit(tid, class, op, a0, a1), HasFut: true}
}

// Get answers a map read. With nothing of tid's staged it is the map's
// validated read of the durable state (no round, no persistence instruction);
// otherwise it is staged behind the window's writes, so a window reads its own
// writes.
func (s *ServerStore) Get(tid int, key uint64) server.Result {
	if s.sys.Pending(tid) == 0 {
		v, ok := s.m.Get(tid, key)
		if !ok {
			v = server.NotFound
		}
		return server.Result{Val: v}
	}
	return s.stage(tid, srvMap, OpGet, key, 0)
}

// Set stages a map write; the result is the previous value (with the
// NotFound/Full sentinels).
func (s *ServerStore) Set(tid int, key, val uint64) server.Result {
	return s.stage(tid, srvMap, OpPut, key, val)
}

// Del stages a map delete; the result is the removed value or NotFound.
func (s *ServerStore) Del(tid int, key uint64) server.Result {
	return s.stage(tid, srvMap, OpDelete, key, 0)
}

// IncrBy stages the map's fetch&add; the result is the new value.
func (s *ServerStore) IncrBy(tid int, key, delta uint64) server.Result {
	return s.stage(tid, srvMap, OpAdd, key, delta)
}

// LPush stages an enqueue.
func (s *ServerStore) LPush(tid int, val uint64) server.Result {
	return s.stage(tid, srvEnq, OpEnqueue, val, 0)
}

// RPop stages a dequeue; the result is the value or NotFound (empty).
func (s *ServerStore) RPop(tid int) server.Result {
	return s.stage(tid, srvDeq, OpDequeue, 0, 0)
}

// Flush commits tid's staged operations as one window: one record, one
// vectorized round per instance it touched. In strict mode the window is
// durable when Flush returns; in epoch mode it is applied, and durable at the
// next epoch close.
func (s *ServerStore) Flush(tid int) { s.sys.Flush(tid) }

// Barrier is the WAIT durability point: the window's flush, then one close of
// the store's epoch (a no-op in strict mode, where the flush already made
// everything durable).
func (s *ServerStore) Barrier(tid int) {
	s.Flush(tid)
	s.sys.Epoch().CloseNow()
}

// Threads returns the configured thread/connection budget.
func (s *ServerStore) Threads() int { return s.opts.Threads }
