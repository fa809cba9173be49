package pcomb

import (
	"time"

	"pcomb/internal/pmem"
	"pcomb/internal/server"
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

// ServerOptions configures a durable RESP server store: one recoverable
// hash map (GET/SET/GETSET/DEL/GETDEL/INCRBY) and one recoverable FIFO
// queue (LPUSH/RPOP) on a file-backed heap, shaped for the per-connection
// async pipeline. The zero value is sensible.
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
	// Epoch switches both structures to epoch-mode relaxed durability
	// (group commit). Commands are staged and committed in the same windows
	// as in strict mode, and a window's replies leave at its commit; the
	// commit applies the window without waiting for persistence, and the
	// window becomes durable at the next epoch close — by the background
	// closer, or forced by WAIT. A crash may lose only the open epoch. Part of
	// the persistent layout.
	Epoch bool
	// EpochInterval is the background close cadence (Epoch mode; 0 = close
	// only on WAIT/Sync).
	EpochInterval time.Duration
	// MapCapacity is the map's slot count (0 = 512); a SET or INCRBY of a
	// new key beyond it is refused. The map is one combining instance, not
	// shards: a strict-mode window is then one vectorized announcement, one
	// round and one psync, and windows of different connections meet in the
	// same instance, where one combiner serves them together. Shards would
	// split a window into one round per shard it touches — about 7 rounds
	// and 7 psyncs for 16 keys over 8 shards. Part of the persistent layout.
	MapCapacity int
	// QueueCapacity sizes the queue's node arena (0 = package default).
	QueueCapacity int
	// CapacityWords sizes the backing file's data area on creation.
	CapacityWords int
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

// ServerStore adapts the recoverable map + queue pair to the RESP server's
// Store contract (internal/server), one path for both durability modes: every
// update is staged on the async Submit path and committed by the connection's
// Flush as one window, and a GET on a window with nothing staged on the map is
// a validated read of the durable state. The mode only decides when a
// committed window is durable: at its Flush (strict), or at the next epoch
// close, which Barrier/WAIT forces (epoch).
type ServerStore struct {
	m     *Map
	q     *Queue
	h     *pmem.Heap
	opts  ServerOptions
	owned bool // Close also closes the heap (OpenServerStore)
}

var _ server.Store = (*ServerStore)(nil)

// NewServerStoreOn builds (or, after a restart, re-attaches) the server's
// structures on an existing heap without running recovery — callers that
// need to inspect interrupted batches (the kill harness) recover
// themselves; everyone else uses OpenServerStore.
func NewServerStoreOn(h *pmem.Heap, o ServerOptions) *ServerStore {
	o = o.withDefaults()
	sys := NewOn(h)
	// One extra slot keeps a full window from auto-flushing before the
	// server's own commit point, so each window is one announcement.
	vcap := o.FlushOps + 1
	m := sys.NewMap("srv/map", o.Threads, o.Kind, MapOptions{
		Shards:        1,
		Capacity:      o.MapCapacity,
		VecCap:        vcap,
		Epoch:         o.Epoch,
		EpochInterval: o.EpochInterval,
	})
	q := sys.NewQueue("srv/q", o.Threads, o.Kind, QueueOptions{
		Capacity:      o.QueueCapacity,
		VecCap:        vcap,
		Epoch:         o.Epoch,
		EpochInterval: o.EpochInterval,
	})
	return &ServerStore{m: m, q: q, h: h, opts: o}
}

// OpenServerStore opens (creating if absent) a file-backed server store and
// — on restart — resolves every thread's interrupted operations. restart
// reports whether an existing file was re-attached.
func OpenServerStore(o ServerOptions) (s *ServerStore, restart bool, err error) {
	o = o.withDefaults()
	h, restart, err := pmem.OpenFile(o.Path, pmem.FileOpts{
		CapacityWords: o.CapacityWords,
		Sync:          o.Sync,
		Cfg:           pmem.Config{NoCost: o.NoCost},
	})
	if err != nil {
		return nil, false, err
	}
	s = NewServerStoreOn(h, o)
	s.owned = true
	if restart {
		s.Recover()
	}
	return s, restart, nil
}

// Recover resolves every thread's interrupted operations after a restart
// and returns how many were resolved (see Queue.Recover), then makes the
// recovered state durable (an epoch close; nothing to do in strict mode).
func (s *ServerStore) Recover() int {
	n := 0
	for tid := 0; tid < s.opts.Threads; tid++ {
		n += len(s.m.Recover(tid)) + len(s.q.Recover(tid))
	}
	s.m.Sync()
	s.q.Sync()
	return n
}

// Map exposes the underlying map (recovery inspection, history recording).
func (s *ServerStore) Map() *Map { return s.m }

// Queue exposes the underlying queue.
func (s *ServerStore) Queue() *Queue { return s.q }

// Heap exposes the backing heap (persistence-instruction counters).
func (s *ServerStore) Heap() *pmem.Heap { return s.h }

// Close stops the epoch closers (after a final close; strict mode has none)
// and, when the store owns its heap, closes the backing file.
func (s *ServerStore) Close() error {
	s.m.Close()
	s.q.Close()
	if s.owned {
		return s.h.Close()
	}
	return nil
}

// ---- server.Store ----

// Get answers a map read. With nothing of tid's staged on the map it is the
// map's validated read of the durable state (no round, no persistence
// instruction); otherwise it is staged behind the window's writes, so a window
// reads its own writes.
func (s *ServerStore) Get(tid int, key uint64) server.Result {
	if s.m.Pending(tid) == 0 {
		v, ok := s.m.Get(tid, key)
		if !ok {
			v = server.NotFound
		}
		return server.Result{Val: v}
	}
	return server.Result{Fut: s.m.SubmitGet(tid, key), HasFut: true}
}

// Set stages a map write; the result is the previous value (with the
// NotFound/Full sentinels).
func (s *ServerStore) Set(tid int, key, val uint64) server.Result {
	return server.Result{Fut: s.m.SubmitPut(tid, key, val), HasFut: true}
}

// Del stages a map delete; the result is the removed value or NotFound.
func (s *ServerStore) Del(tid int, key uint64) server.Result {
	return server.Result{Fut: s.m.SubmitDelete(tid, key), HasFut: true}
}

// IncrBy stages the map's fetch&add; the result is the new value.
func (s *ServerStore) IncrBy(tid int, key, delta uint64) server.Result {
	return server.Result{Fut: s.m.SubmitAdd(tid, key, delta), HasFut: true}
}

// LPush stages an enqueue.
func (s *ServerStore) LPush(tid int, val uint64) server.Result {
	return server.Result{Fut: s.q.SubmitEnqueue(tid, val), HasFut: true}
}

// RPop stages a dequeue; the result is the value or NotFound (empty).
func (s *ServerStore) RPop(tid int) server.Result {
	return server.Result{Fut: s.q.SubmitDequeue(tid), HasFut: true}
}

// Flush commits tid's staged operations as one window: one vectorized round
// per structure it touched. In strict mode the window is durable when Flush
// returns; in epoch mode it is applied, and durable at the next epoch close.
func (s *ServerStore) Flush(tid int) {
	s.m.Flush(tid)
	s.q.Flush(tid)
}

// Barrier is the WAIT durability point: the window's flush, then an epoch
// close of both structures (a no-op in strict mode, where the flush already
// made everything durable).
func (s *ServerStore) Barrier(tid int) {
	s.Flush(tid)
	s.m.Sync()
	s.q.Sync()
}

// Threads returns the configured thread/connection budget.
func (s *ServerStore) Threads() int { return s.opts.Threads }
