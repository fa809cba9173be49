package hashmap

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"pcomb/internal/pmem"
	"pcomb/internal/sysarea"
	"pcomb/internal/vecbatch"
)

// A step is one call of the equivalence sequence: a scalar update, a
// transfer, or a window of staged puts committed by one Flush.
type step struct {
	tid      int
	op       uint64 // OpPut, OpDel, OpAdd; 0 = TransferAdd; ^0 = a window
	key, val uint64
	to       uint64   // TransferAdd's second key
	window   []uint64 // a window's keys (its values: key+val)
}

func genSteps(seed int64, n int) []step {
	rng := rand.New(rand.NewSource(seed))
	key := func() uint64 { return uint64(rng.Intn(48)) + 1 }
	steps := make([]step, n)
	for i := range steps {
		s := step{tid: i % 2, key: key(), val: uint64(rng.Intn(1 << 16))}
		switch rng.Intn(5) {
		case 0:
			s.op = OpPut
		case 1:
			s.op = OpDel
		case 2:
			s.op = OpAdd
		case 3:
			s.to = key()
		default:
			s.op = ^uint64(0)
			for j := 1 + rng.Intn(5); j > 0; j-- {
				s.window = append(s.window, key())
			}
		}
		steps[i] = s
	}
	return steps
}

// do runs s on m and returns its responses.
func (s step) do(m *Map) []uint64 {
	switch s.op {
	case OpPut:
		prev, _ := m.Put(s.tid, s.key, s.val)
		return []uint64{prev}
	case OpDel:
		v, ok := m.Delete(s.tid, s.key)
		if !ok {
			v = NotFound
		}
		return []uint64{v}
	case OpAdd:
		return []uint64{m.Add(s.tid, s.key, s.val)}
	case 0:
		from, to := m.TransferAdd(s.tid, s.key, s.to, s.val)
		return []uint64{from, to}
	}
	fs := make([]vecbatch.Future, len(s.window))
	for i, k := range s.window {
		fs[i] = m.SubmitPut(s.tid, k, k+s.val)
	}
	m.Flush(s.tid)
	out := make([]uint64, len(fs))
	for i, f := range fs {
		out[i] = f.Wait()
	}
	return out
}

// TestBoardMatchesDirect runs one seeded single-thread sequence of Put,
// Delete, Add, TransferAdd and SubmitPut+Flush windows on a direct map and on
// a board map: every call must return the same on both, and so must Range.
// Then each map is crashed at a seeded persistence event inside a seeded step
// (DropUnfenced) and every thread recovered: both must report the same
// recovered operations, hold what the uncrashed run held after that step, and
// go on returning what the uncrashed run returned.
func TestBoardMatchesDirect(t *testing.T) {
	const threads, nsteps = 2, 80
	for _, k := range kinds() {
		for seed := int64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", k.name, seed), func(t *testing.T) {
				steps := genSteps(seed, nsteps)
				open := func(h *pmem.Heap, board bool) *Map {
					return NewWith(h, "m", threads, k.kind, Options{Shards: 4, Capacity: 256, VecCap: 16, Board: board})
				}
				type run struct {
					rets   [][]uint64
					events []int64 // persistence events each step issued
					after  []map[uint64]uint64
				}
				clean := func(board bool) run {
					h := newHeap()
					m := open(h, board)
					var r run
					for _, s := range steps {
						e := h.GlobalEvents()
						r.rets = append(r.rets, s.do(m))
						r.events = append(r.events, h.GlobalEvents()-e)
						r.after = append(r.after, mapContents(m))
					}
					return r
				}
				direct, board := clean(false), clean(true)
				if !reflect.DeepEqual(direct.rets, board.rets) {
					t.Fatalf("responses differ:\ndirect %v\nboard  %v", direct.rets, board.rets)
				}
				if !reflect.DeepEqual(direct.after[nsteps-1], board.after[nsteps-1]) {
					t.Fatalf("contents differ:\ndirect %v\nboard  %v", direct.after[nsteps-1], board.after[nsteps-1])
				}

				rng := rand.New(rand.NewSource(seed))
				at := rng.Intn(nsteps)
				pick := rng.Int63()
				t.Logf("crash inside step %d: %+v", at, steps[at])
				crashed := func(board bool, ref run) []sysarea.Resolved {
					h := newHeap()
					m := open(h, board)
					for _, s := range steps[:at] {
						s.do(m)
					}
					if ref.events[at] == 0 {
						t.Fatalf("step %d issued no persistence event", at)
					}
					h.SetCrashAtEvent(1 + pick%ref.events[at])
					func() {
						defer func() {
							if _, ok := recover().(pmem.CrashError); !ok {
								t.Fatalf("step %d did not crash", at)
							}
						}()
						steps[at].do(m)
					}()
					h.FinishCrash(pmem.DropUnfenced, seed)
					m = open(h, board)
					var rs []sysarea.Resolved
					for tid := 0; tid < threads; tid++ {
						rs = append(rs, m.Recover(tid)...)
					}
					if got := mapContents(m); !reflect.DeepEqual(got, ref.after[at]) {
						t.Fatalf("board=%v: after recovering step %d the map holds %v, want %v", board, at, got, ref.after[at])
					}
					for i, s := range steps[at+1:] {
						if got := s.do(m); !reflect.DeepEqual(got, ref.rets[at+1+i]) {
							t.Fatalf("board=%v: step %d after recovery returned %v, want %v", board, at+1+i, got, ref.rets[at+1+i])
						}
					}
					return rs
				}
				rd, rb := crashed(false, direct), crashed(true, board)
				if !reflect.DeepEqual(rd, rb) {
					t.Fatalf("recovered operations differ:\ndirect %+v\nboard  %+v", rd, rb)
				}
			})
		}
	}
}

// TestBoardWindowsTransfersRace: a board map also carries Submit/Flush
// windows (the client announces its groups under its own tid while sweepers
// announce under the extra one) and transfers. Four threads mix board scalar
// writes on their own keys, windows and TransferAdd between shared accounts:
// every thread reads its own writes, and SumValues is the accounts' initial
// total plus what the threads left on their own keys.
func TestBoardWindowsTransfersRace(t *testing.T) {
	const threads, per, accounts, each = 4, 200, 16, 1000
	for _, k := range kinds() {
		t.Run(k.name, func(t *testing.T) {
			m := NewWith(newHeap(), "m", threads, k.kind, Options{Shards: 4, Capacity: 1024, VecCap: 16, Board: true})
			defer m.Close()
			for a := uint64(1); a <= accounts; a++ {
				m.Put(0, a, each)
			}
			own := make([]uint64, threads) // final sum of each thread's own keys
			var wg sync.WaitGroup
			for tid := 0; tid < threads; tid++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(tid)))
					base := uint64(tid+1) << 32
					vals := map[uint64]uint64{}
					check := func(key uint64) bool {
						if got, _ := m.Get(tid, key); got != vals[key] {
							t.Errorf("thread %d: Get(%#x) = %d after writing %d", tid, key, got, vals[key])
							return false
						}
						return true
					}
					for i := 0; i < per; i++ {
						key := base | uint64(rng.Intn(8)) + 1
						switch i % 4 {
						case 0:
							v := uint64(rng.Intn(1000))
							m.Put(tid, key, v)
							vals[key] = v
						case 1:
							vals[key] = m.Add(tid, key, 3)
						case 2:
							a, b := m.SubmitAdd(tid, key, 5), m.SubmitPut(tid, key|1<<16, uint64(i))
							m.Flush(tid)
							vals[key] = a.Wait()
							b.Wait()
							vals[key|1<<16] = uint64(i)
							if !check(key | 1<<16) {
								return
							}
						default:
							from := uint64(rng.Intn(accounts)) + 1
							to := from%accounts + 1
							m.TransferAdd(tid, from, to, uint64(rng.Intn(50)))
						}
						if !check(key) {
							return
						}
					}
					for _, v := range vals {
						own[tid] += v
					}
				}(tid)
			}
			wg.Wait()
			want := uint64(accounts * each)
			for _, s := range own {
				want += s
			}
			if got := m.SumValues(); got != want {
				t.Fatalf("SumValues = %d, want %d", got, want)
			}
		})
	}
}
