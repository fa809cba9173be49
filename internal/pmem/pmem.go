// Package pmem simulates byte-addressable non-volatile main memory (NVMM)
// under the explicit epoch persistency model of Izraelevitz et al. that the
// paper assumes: a pwb instruction schedules a cache-line write-back, a
// pfence orders preceding pwbs before subsequent ones, and a psync blocks
// until all scheduled write-backs are durable.
//
// Persistent data lives in Regions: flat []uint64 arrays registered with a
// Heap. All word access goes through atomic helpers so that concurrent
// optimistic copies (PWFcomb) are defined behavior and the package is clean
// under the race detector.
//
// The Heap runs in one of three modes:
//
//   - ModeCount: pwb/pfence/psync only maintain per-thread counters and charge
//     a calibrated CPU cost. This is the benchmarking mode; it reproduces the
//     paper's "pwbs per operation" series and the relative cost of
//     persistence without needing real NVMM.
//   - ModeShadow: additionally, each pwb captures the affected cache lines and
//     a durable shadow copy of every region is maintained: write-backs become
//     durable when the issuing thread's next pfence or psync retires (the
//     guarantee CLWB+SFENCE gives on an ADR platform), while write-backs
//     still pending at a crash survive only at the adversary's discretion.
//     Write-backs of one line land in issue order across threads (an older
//     capture arriving after a newer one is dropped), as hardware orders
//     same-address write-backs. Crash() discards volatile contents and
//     reconstructs each region from its shadow. This is the
//     correctness-testing mode.
//   - ModeVolatile: pwb/pfence/psync are free no-ops (the paper's "volatile
//     version" used in Figure 4).
package pmem

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// LineWords is the number of 64-bit words per simulated cache line (64 bytes).
const LineWords = 8

// Mode selects how much work persistence instructions do.
type Mode int

const (
	// ModeCount counts and charges persistence instructions but keeps no shadow.
	ModeCount Mode = iota
	// ModeShadow additionally maintains a durable shadow heap for crash tests.
	ModeShadow
	// ModeVolatile turns all persistence instructions into free no-ops.
	ModeVolatile
)

func (m Mode) String() string {
	switch m {
	case ModeCount:
		return "count"
	case ModeShadow:
		return "shadow"
	case ModeVolatile:
		return "volatile"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Config configures a simulated NVMM heap.
type Config struct {
	Mode Mode

	// PwbOff replaces pwb with a NOP (still counted), as in Figure 2c.
	PwbOff bool
	// PsyncOff replaces psync with a NOP (still counted), as in Figure 1c.
	PsyncOff bool

	// Simulated instruction costs in nanoseconds. Zero values select
	// Optane-like defaults; set NoCost to disable charging entirely.
	PwbNs    int
	PfenceNs int
	PsyncNs  int
	// MissNs is the simulated cost of a cross-core cache-line transfer,
	// charged through HotWord ownership changes (coherence traffic exists
	// in volatile mode too). Zero selects the default.
	MissNs int
	NoCost bool
}

// Default simulated costs, chosen to reflect the ratios measured on Optane
// DCPMM (a write-back of a dirty line is expensive; an ordering fence is
// cheap; a drain waits for outstanding write-backs).
const (
	DefaultPwbNs    = 200
	DefaultPfenceNs = 30
	DefaultPsyncNs  = 400
)

// Heap is a simulated NVMM device plus its volatile cache hierarchy.
type Heap struct {
	cfg Config

	mu      sync.Mutex
	regions map[string]*Region
	byID    []*Region
	ctxs    []*Ctx
	// cat is the region table (catalog.go); byID[i] is its entry i.
	cat catalog

	// fs, when non-nil, is the mmap file store backing every region's
	// durable shadow (see filestore.go).
	fs *fileStore

	crashedFlag atomic.Bool

	// killAtEvent/killFn implement the real-death analogue of crashAtEvent:
	// at the k-th global persistence event killFn runs — the crashtest kill
	// harness installs a self-SIGKILL, so the process dies at a
	// deterministic, replayable point. killFn is set before workers start
	// and must not return.
	killAtEvent atomic.Int64
	killFn      func()

	// Global persistence-event bookkeeping (ModeShadow only): events counts
	// every pwb/pfence/psync/CrashPoint across all contexts, and
	// crashAtEvent, when non-zero, is the absolute event index at which the
	// next event panics with CrashError (the deterministic crash schedule
	// that generalizes the per-context SetCrashAt to "the k-th persistence
	// event anywhere").
	events       atomic.Int64
	crashAtEvent atomic.Int64

	pwbCost    spinCost
	pfenceCost spinCost
	psyncCost  spinCost
	missCost   spinCost
}

// NewHeap creates a simulated NVMM heap whose catalog is in memory.
func NewHeap(cfg Config) *Heap {
	if cfg.PwbNs == 0 {
		cfg.PwbNs = DefaultPwbNs
	}
	if cfg.PfenceNs == 0 {
		cfg.PfenceNs = DefaultPfenceNs
	}
	if cfg.PsyncNs == 0 {
		cfg.PsyncNs = DefaultPsyncNs
	}
	if cfg.MissNs == 0 {
		cfg.MissNs = DefaultMissNs
	}
	h := &Heap{cfg: cfg, regions: make(map[string]*Region)}
	h.cat = catalog{words: make([]uint64, catStart), hi: math.MaxInt}
	h.cat.init()
	if !cfg.NoCost && cfg.Mode != ModeVolatile {
		h.pwbCost = costForNs(cfg.PwbNs)
		h.pfenceCost = costForNs(cfg.PfenceNs)
		h.psyncCost = costForNs(cfg.PsyncNs)
	}
	if !cfg.NoCost {
		h.missCost = costForNs(cfg.MissNs)
	}
	return h
}

// Config returns the heap's configuration.
func (h *Heap) Config() Config { return h.cfg }

// Alloc registers a new persistent region of the given size in words.
// It panics if the name is already taken; use AllocOrGet to re-open a
// region across a simulated crash.
func (h *Heap) Alloc(name string, words int) *Region {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.regions[name]; ok {
		panic(fmt.Sprintf("pmem: region %q already allocated", name))
	}
	return h.allocLocked(name, words)
}

// AllocOrGet returns the region with the given name, allocating it if it
// does not exist. Re-opening after Crash+Recover returns the recovered
// region, after validating the region's checksummed catalog entry. It
// panics if an existing region has a different size, or with an error
// wrapping ErrCorruptCatalog if the catalog is damaged (use OpenChecked
// to receive the error instead).
func (h *Heap) AllocOrGet(name string, words int) *Region {
	r, err := h.OpenChecked(name, words)
	if err != nil {
		panic(err)
	}
	return r
}

// OpenChecked is AllocOrGet with typed errors instead of panics: re-opening
// an existing region validates its catalog entry and returns an error
// wrapping ErrCorruptCatalog if the durable catalog was damaged, rather
// than silently serving a region whose metadata cannot be trusted.
func (h *Heap) OpenChecked(name string, words int) (*Region, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if r, ok := h.regions[name]; ok {
		if err := h.checkEntryLocked(r); err != nil {
			return nil, err
		}
		if len(r.words) != words {
			return nil, fmt.Errorf("%w: region %q reopened with %d words, has %d",
				ErrSizeMismatch, name, words, len(r.words))
		}
		return r, nil
	}
	return h.allocLocked(name, words), nil
}

func (h *Heap) allocLocked(name string, words int) *Region {
	off, err := h.cat.add(name, words)
	if err != nil {
		panic(err)
	}
	r := &Region{
		h:     h,
		name:  name,
		id:    len(h.byID),
		words: make([]uint64, words),
	}
	switch {
	case h.fs != nil:
		h.fs.syncMeta()
		r.attachShadow(h.fs.words[off : off+words : off+words])
		r.fileOff = off
		// A fresh region's durable contents must be zero. On a file this
		// heap created they are: the file began as a hole, and only regions
		// whose entries were already committed have been written. On a
		// reattached file a slot abandoned by a killed, uncommitted
		// allocation may hold stale bytes, so only there is it cleared
		// (which allocates the slot's blocks).
		if !h.fs.created {
			clear(r.shadow)
		}
	case h.cfg.Mode == ModeShadow:
		r.attachShadow(make([]uint64, words))
	}
	h.regions[name] = r
	h.byID = append(h.byID, r)
	return r
}

// ErrSizeMismatch reports that a region was re-opened with a size different
// from the one it was allocated with — a caller bug or layout-version skew,
// distinct from checksum corruption (ErrCorruptCatalog).
var ErrSizeMismatch = errors.New("pmem: region size mismatch")

// Region looks up a region by name, returning nil if absent.
func (h *Heap) Region(name string) *Region {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.regions[name]
}

// NewCtx returns a fresh per-thread persistence context. Each simulated
// thread must use its own Ctx; contexts are not safe for concurrent use.
func (h *Heap) NewCtx() *Ctx {
	h.mu.Lock()
	c := &Ctx{h: h, id: len(h.ctxs)}
	h.ctxs = append(h.ctxs, c)
	h.mu.Unlock()
	return c
}

// Stats aggregates persistence-instruction counters across all contexts.
type Stats struct {
	Pwbs    uint64
	Pfences uint64
	Psyncs  uint64
}

// Stats returns the aggregate persistence-instruction counts.
func (h *Heap) Stats() Stats {
	h.mu.Lock()
	defer h.mu.Unlock()
	var s Stats
	for _, c := range h.ctxs {
		s.Pwbs += c.pwbs
		s.Pfences += c.pfences
		s.Psyncs += c.psyncs
	}
	return s
}

// ResetStats zeroes all per-context counters.
func (h *Heap) ResetStats() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, c := range h.ctxs {
		c.pwbs, c.pfences, c.psyncs = 0, 0, 0
	}
}
