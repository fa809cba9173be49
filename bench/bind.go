package main

// bind.go is the only file that imports the repository. Every constructor the
// benchmark uses is called here, with the benchmark's fixed sizing; the other
// files call methods on the values these functions return. README.md lists
// the exact symbols, so a refactor of the stack knows what surface the
// benchmark holds still.

import (
	"bufio"

	"pcomb"
	"pcomb/internal/core"
	"pcomb/internal/hashmap"
	"pcomb/internal/pmem"
	"pcomb/internal/pool"
	"pcomb/internal/server"
	"pcomb/internal/vecbatch"
)

type (
	system      = pcomb.System
	queue       = pcomb.Queue
	shardedMap  = pcomb.ShardedMap
	serverStore = pcomb.ServerStore
	rserver     = server.Server
	store       = server.Store
	storeResult = server.Result
	pmemStats   = pmem.Stats
	pmemHeap    = pmem.Heap
	vecOp       = core.VecOp
)

// Sizing shared by the workloads and the probes that mirror them.
const (
	queuePrefill  = 1024
	bankAccounts  = 2048
	bankCapacity  = 8192
	bankShards    = 4
	bankInitial   = 1_000_000
	srvKeys       = 2048
	srvFlushOps   = 16
	srvMapCap     = 8192
	srvMapShards  = 8 // the library default, restated for the hashmap probes
	counterAddOp  = core.OpCounterAdd
	costModelNote = "simulated" // pwb/pfence/psync are calibrated spin loops
	syncModeNote  = "none"      // file heaps run SyncNone: page cache, no msync
)

// system is one simulated-NVMM heap with the library's default costs, or with
// charging off for the probes.
func newSystem(noCost bool) *system { return pcomb.New(pcomb.Options{NoCost: noCost}) }

// newPairsQueue is the queue_pairs structure: PBqueue (PWFqueue never
// recycles nodes and exhausts the default arena in about two seconds).
func newPairsQueue(s *system, threads int) *queue {
	return s.NewQueue("bench/q", threads, pcomb.Blocking)
}

// newBank is the fabric_bank structure: a 4-shard fabric on PWFcomb,
// hierarchical unless flat.
func newBank(s *system, threads int, flat bool) *shardedMap {
	return s.NewShardedMap("bench/bank", threads, pcomb.WaitFree, pcomb.ShardedMapOptions{
		Fabric:   bankShards,
		Capacity: bankCapacity,
		Flat:     flat,
	})
}

// openStore opens the srv_* store as pcomb-server does by default (16
// connection slots, PBcomb, strict mode, 16-op windows, no msync), with the
// map sized for the key set.
func openStore(path string) (*serverStore, bool, error) {
	return pcomb.OpenServerStore(pcomb.ServerOptions{
		Path:        path,
		Kind:        pcomb.Blocking,
		FlushOps:    srvFlushOps,
		MapCapacity: srvMapCap,
		Sync:        pcomb.SyncNone,
	})
}

func newServer(st store) *rserver { return server.New(st, server.Options{FlushOps: srvFlushOps}) }

// windowStats returns the count of committed windows and the operations they
// held since the server started.
func windowStats(s *rserver) (windows, ops float64) {
	h := s.BatchStats()
	n := float64(h.Count())
	return n, h.Mean() * n
}

func hashKey(k string) uint64 { return server.HashKey(k) }

func readCommand(br *bufio.Reader) (string, int, error) {
	c, err := server.ReadCommand(br)
	return c.Name, len(c.Args), err
}

// ---- probe constructors ----

func newCountHeap(noCost bool) *pmemHeap {
	return pmem.NewHeap(pmem.Config{Mode: pmem.ModeCount, NoCost: noCost})
}

func openFileHeap(path string, fence bool) (*pmemHeap, error) {
	mode := pmem.SyncNone
	if fence {
		mode = pmem.SyncFence
	}
	h, _, err := pmem.OpenFile(path, pmem.FileOpts{
		CapacityWords: 1 << 16,
		Sync:          mode,
		Cfg:           pmem.Config{NoCost: true},
	})
	return h, err
}

// invoker is what the core probes call on either protocol.
type invoker interface {
	Invoke(tid int, op, a0, a1, seq uint64) uint64
	InvokeVec(tid int, ops []vecOp, seq uint64, rets []uint64)
}

func newCounterComb(h *pmemHeap, name string, waitFree bool, vecCap int) invoker {
	o := core.CombOpts{VecCap: vecCap}
	if waitFree {
		return core.NewPWFCombWith(h, name, 1, core.Counter{}, o)
	}
	return core.NewPBCombWith(h, name, 1, core.Counter{}, o)
}

func newPool(h *pmemHeap) *pool.Pool { return pool.New(h, "bench/pool", 1, 2, 1024, 64) }

// newProbeMap is sized as the srv_* store's map: 8 shards sharing 8192 slots,
// windows of 16 with one spare slot.
func newProbeMap(h *pmemHeap) *hashmap.Map {
	return hashmap.NewWith(h, "bench/map", 1, hashmap.Blocking, hashmap.Options{
		Shards:   srvMapShards,
		Capacity: srvMapCap,
		VecCap:   srvFlushOps + 1,
	})
}

func newNoopPipe() *vecbatch.Pipe {
	return vecbatch.New(1, srvFlushOps+1, func(int, []vecOp, []uint64) {})
}
