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
	// naive flush-per-command). Part of the persistent layout in strict
	// mode — re-open with the same value.
	FlushOps int
	// Epoch switches both structures to epoch-mode relaxed durability
	// (group commit): operations acknowledge immediately, a background
	// closer persists whole epochs, WAIT maps to Sync, and a crash may lose
	// only the open epoch. Part of the persistent layout.
	Epoch bool
	// EpochInterval is the background close cadence (Epoch mode; 0 = close
	// only on WAIT/Sync).
	EpochInterval time.Duration
	// MapShards / MapCapacity / QueueCapacity size the structures
	// (0 = package defaults).
	MapShards     int
	MapCapacity   int
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
	return o
}

// ServerStore adapts the recoverable map + queue pair to the RESP server's
// Store contract (internal/server): in strict mode every operation is
// staged on the async Submit path and committed by the connection's Flush;
// in epoch mode operations run scalar (acknowledge fast, group-commit at
// epoch closes) and Barrier/WAIT forces the close.
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
	vcap := 0
	if !o.Epoch {
		// One extra slot keeps a full window from auto-flushing before the
		// server's own commit point, so each window is one announcement.
		vcap = o.FlushOps + 1
	}
	m := sys.NewMap("srv/map", o.Threads, o.Kind, MapOptions{
		Shards:        o.MapShards,
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

// Close stops the epoch closers (after a final close) and, when the store
// owns its heap, closes the backing file.
func (s *ServerStore) Close() error {
	if s.opts.Epoch {
		s.m.Close()
		s.q.StopEpoch()
	}
	if s.owned {
		return s.h.Close()
	}
	return nil
}

// ---- server.Store ----

// Get stages (strict) or runs (epoch) a map read.
func (s *ServerStore) Get(tid int, key uint64) server.Result {
	if s.opts.Epoch {
		v, ok := s.m.Get(tid, key)
		if !ok {
			v = server.NotFound
		}
		return server.Result{Val: v}
	}
	return server.Result{Fut: s.m.SubmitGet(tid, key), HasFut: true}
}

// Set stages or runs a map write; the result is the previous value (with
// the NotFound/Full sentinels).
func (s *ServerStore) Set(tid int, key, val uint64) server.Result {
	if s.opts.Epoch {
		prev, _ := s.m.Put(tid, key, val)
		return server.Result{Val: prev}
	}
	return server.Result{Fut: s.m.SubmitPut(tid, key, val), HasFut: true}
}

// Del stages or runs a map delete; the result is the removed value or
// NotFound.
func (s *ServerStore) Del(tid int, key uint64) server.Result {
	if s.opts.Epoch {
		v, ok := s.m.Delete(tid, key)
		if !ok {
			v = server.NotFound
		}
		return server.Result{Val: v}
	}
	return server.Result{Fut: s.m.SubmitDelete(tid, key), HasFut: true}
}

// IncrBy stages or runs the map's fetch&add; the result is the new value.
func (s *ServerStore) IncrBy(tid int, key, delta uint64) server.Result {
	if s.opts.Epoch {
		return server.Result{Val: s.m.Add(tid, key, delta)}
	}
	return server.Result{Fut: s.m.SubmitAdd(tid, key, delta), HasFut: true}
}

// LPush stages or runs an enqueue.
func (s *ServerStore) LPush(tid int, val uint64) server.Result {
	if s.opts.Epoch {
		s.q.Enqueue(tid, val)
		return server.Result{}
	}
	return server.Result{Fut: s.q.SubmitEnqueue(tid, val), HasFut: true}
}

// RPop stages or runs a dequeue; the result is the value or NotFound
// (empty).
func (s *ServerStore) RPop(tid int) server.Result {
	if s.opts.Epoch {
		v, ok := s.q.Dequeue(tid)
		if !ok {
			v = server.NotFound
		}
		return server.Result{Val: v}
	}
	return server.Result{Fut: s.q.SubmitDequeue(tid), HasFut: true}
}

// PendingQueueClass reports which queue class tid has staged (see
// server.Store).
func (s *ServerStore) PendingQueueClass(tid int) int {
	if s.q.PendingEnqueues(tid) > 0 {
		return 1
	}
	if s.q.PendingDequeues(tid) > 0 {
		return 2
	}
	return 0
}

// Flush commits tid's staged operations durably (no-op in epoch mode,
// where nothing stages).
func (s *ServerStore) Flush(tid int) {
	if s.opts.Epoch {
		return
	}
	s.m.Flush(tid)
	s.q.Flush(tid)
}

// Pending counts tid's staged, unflushed operations.
func (s *ServerStore) Pending(tid int) int {
	if s.opts.Epoch {
		return 0
	}
	return s.m.Pending(tid) + s.q.Pending(tid)
}

// Barrier is the WAIT durability point: in strict mode a flush (staged ops
// become durable with their batch), in epoch mode a Sync of both
// structures (everything acknowledged is in a closed epoch afterwards).
func (s *ServerStore) Barrier(tid int) {
	if s.opts.Epoch {
		s.m.Sync()
		s.q.Sync()
		return
	}
	s.Flush(tid)
}

// Epoch reports whether the store runs in epoch (relaxed-durability) mode.
func (s *ServerStore) Epoch() bool { return s.opts.Epoch }

// Threads returns the configured thread/connection budget.
func (s *ServerStore) Threads() int { return s.opts.Threads }
