package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// A probe is a single-threaded loop over one layer's public calls, in the
// traced trial's own process after the workload has finished. Unless a probe
// says otherwise its heap charges nothing (NoCost), so it reads the layer's
// own instructions and not the simulated device. Probes are not workload
// numbers: they have no contention, no combining beyond degree 1, and a warm
// cache.

// timeLoop calls step until d has passed and returns nanoseconds per call.
func timeLoop(d time.Duration, step func()) float64 {
	const chunk = 64
	var n int64
	t0 := now()
	end := t0 + int64(d)
	t := t0
	for t < end {
		for i := 0; i < chunk; i++ {
			step()
		}
		n += chunk
		t = now()
	}
	return float64(t-t0) / float64(n)
}

func runProbes(cfg trialCfg, out map[string]float64) error {
	d := cfg.probe
	dir, err := os.MkdirTemp(cfg.outDir, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// pmem: the simulated instructions at the default costs the workloads
	// pay, which shows how far this process's calibration is from
	// 200/30/400 ns.
	{
		h := newCountHeap(false)
		r, ctx := h.Alloc("probe", 64), h.NewCtx()
		out["pmem.pwb_ns"] = timeLoop(d, func() { ctx.PWB(r, 0, 1) })
		out["pmem.pfence_ns"] = timeLoop(d, func() { ctx.PFence() })
		out["pmem.psync_ns"] = timeLoop(d, func() { ctx.PSync() })
	}

	// pmem on a mapped file, as the srv_* store runs: rounds of 8 write-backs
	// to distinct lines and one psync that drains them, each part under its
	// own clock reads. With SyncFence the psync is a real msync of one line.
	{
		h, err := openFileHeap(filepath.Join(dir, "none.pmem"), false)
		if err != nil {
			return fmt.Errorf("probe file heap: %w", err)
		}
		r, ctx := h.Alloc("probe", 64), h.NewCtx()
		var pwbNs, psyncNs, rounds int64
		for end := now() + int64(d); now() < end; rounds++ {
			t0 := now()
			for line := 0; line < 8; line++ {
				ctx.PWB(r, line*8, 1)
			}
			t1 := now()
			ctx.PSync()
			pwbNs, psyncNs = pwbNs+t1-t0, psyncNs+now()-t1
		}
		out["pmem.file_pwb_ns"] = float64(pwbNs) / float64(8*rounds)
		out["pmem.file_psync_ns"] = float64(psyncNs) / float64(rounds)
		if err := h.Close(); err != nil {
			return err
		}

		if h, err = openFileHeap(filepath.Join(dir, "fence.pmem"), true); err != nil {
			return fmt.Errorf("probe file heap: %w", err)
		}
		r, ctx = h.Alloc("probe", 64), h.NewCtx()
		out["pmem.file_fence_psync_us"] = timeLoop(d, func() { ctx.PWB(r, 0, 1); ctx.PSync() }) / 1e3
		if err := h.Close(); err != nil {
			return err
		}
	}

	// core: one combining round at degree 1, and a 16-operation vector.
	for _, p := range []struct {
		prefix   string
		waitFree bool
	}{{"core.pb", false}, {"core.pwf", true}} {
		h := newCountHeap(true)
		seq := uint64(0)
		c := newCounterComb(h, "scalar", p.waitFree, 0)
		out[p.prefix+"_invoke_ns"] = timeLoop(d, func() { seq++; c.Invoke(0, counterAddOp, 1, 0, seq) })
		v := newCounterComb(h, "vec", p.waitFree, srvFlushOps)
		ops, rets := make([]vecOp, srvFlushOps), make([]uint64, srvFlushOps)
		for i := range ops {
			ops[i] = vecOp{Op: counterAddOp, A0: 1}
		}
		seq = 0
		out[p.prefix+"_vec16_ns_per_op"] = timeLoop(d, func() { seq++; v.InvokeVec(0, ops, seq, rets) }) / srvFlushOps
	}

	{
		h := newCountHeap(true)
		p, ctx := newPool(h), h.NewCtx()
		out["pool.alloc_free_ns"] = timeLoop(d, func() { p.Free(0, p.Alloc(ctx, 0)) })
	}

	{
		q := newPairsQueue(newSystem(true), 1)
		out["queue.pair_ns_1t"] = timeLoop(d, func() { q.Enqueue(0, 1); q.Dequeue(0) })
	}

	{
		m := newProbeMap(newCountHeap(true))
		k := uint64(0)
		key := func() uint64 { k = k%srvKeys + 1; return k }
		out["hashmap.put_ns_1t"] = timeLoop(d, func() { m.Put(0, key(), 1) })
		out["hashmap.get_ns_1t"] = timeLoop(d, func() { m.Get(0, key()) })
		out["hashmap.vec16_ns_per_op"] = timeLoop(d, func() {
			for i := 0; i < srvFlushOps; i++ {
				m.SubmitPut(0, key(), 1)
			}
			m.Flush(0)
		}) / srvFlushOps
	}

	{
		p := newNoopPipe()
		out["vecbatch.submit_flush16_ns"] = timeLoop(d, func() {
			for i := 0; i < srvFlushOps; i++ {
				p.Submit(0, vecOp{Op: 1})
			}
			p.Flush(0)
		})
	}

	// fabric: one thread through the sharded map, hierarchical (a delegation
	// hop to the shard's combiner goroutine) against flat.
	{
		a := uint64(0)
		key := func() uint64 { a = a%bankAccounts + 1; return a }
		hier := newBank(newSystem(true), 1, false)
		flat := newBank(newSystem(true), 1, true)
		for i := 0; i < bankAccounts; i++ {
			hier.Put(0, key(), bankInitial)
			flat.Put(0, key(), bankInitial)
		}
		out["fabric.get_ns_1t"] = timeLoop(d, func() { hier.Get(0, key()) })
		out["fabric.add_ns_1t"] = timeLoop(d, func() { hier.Add(0, key(), 1) })
		out["fabric.transfer_ns_1t"] = timeLoop(d, func() { k := key(); hier.TransferAdd(0, k, k%bankAccounts+1, 1) })
		out["fabric.flat_get_ns_1t"] = timeLoop(d, func() { flat.Get(0, key()) })
		out["fabric.hop_ns"] = out["fabric.get_ns_1t"] - out["fabric.flat_get_ns_1t"]
		hier.Close()
		flat.Close()
	}

	// server: the RESP parser on a canned SET frame.
	{
		const frames = 1024
		data := bytes.Repeat(respFrame("SET", "c0:k17", "123456789"), frames)
		rd := bytes.NewReader(data)
		br := bufio.NewReaderSize(rd, 1<<16)
		left := 0
		var perr error
		out["server.resp_parse_ns"] = timeLoop(d, func() {
			if left == 0 {
				rd.Reset(data)
				br.Reset(rd)
				left = frames
			}
			left--
			if name, args, err := readCommand(br); err != nil || name != "SET" || args != 2 {
				perr = fmt.Errorf("probe parsed %q with %d arguments: %v", name, args, err)
			}
		})
		if perr != nil {
			return perr
		}
	}
	return nil
}
