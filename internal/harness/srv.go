package harness

// Open-loop benchmark of the durable RESP server: real TCP connections issue
// commands on a Poisson schedule and the per-command RESPONSE time (reply
// received minus scheduled arrival) is measured end to end — wire framing,
// the per-connection staging window, the combining round, and the reply all
// included. Two server policies run on identical workloads: the naive
// baseline commits (flushes + replies) after every command, the batched
// server stages up to FlushOps commands per window and commits at the size
// cap or when the connection has nothing more buffered, whichever comes
// first. The figure is the
// server-layer restatement of the paper's combining argument: one combining
// round per window amortizes the persistence cost across the whole pipeline.

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"pcomb"
	"pcomb/internal/obs"
	"pcomb/internal/pmem"
	"pcomb/internal/server"
)

// FigSrv is the server figure: response-time quantiles and sustained
// throughput vs offered load (ratesMops, million ops/sec across all
// connections) for the naive flush-per-command server vs the batched server
// (windows of flushOps), each serving conns concurrent TCP connections.
// Points carry the measureOpenLoop Extra keys plus "srv-batch-mean" /
// "srv-batch-p99" (committed-window size distribution). Render with
// PrintTailSeries.
func FigSrv(cfg Config, ratesMops []float64, conns, flushOps int) ([]Series, error) {
	if conns <= 0 {
		conns = 8
	}
	if flushOps < 2 {
		flushOps = 16
	}
	variants := []struct {
		name string
		fo   int
	}{
		{"srv-naive", 1},
		{fmt.Sprintf("srv-b%d", flushOps), flushOps},
	}
	out := make([]Series, len(variants))
	for vi, v := range variants {
		out[vi].Name = v.name
		for _, rate := range ratesMops {
			res, err := measureSrv(cfg, v.name, v.fo, conns, rate)
			if err != nil {
				return nil, fmt.Errorf("%s @%gM: %w", v.name, rate, err)
			}
			out[vi].Points = append(out[vi].Points, res)
			if cfg.OnPoint != nil {
				cfg.OnPoint(res)
			}
		}
	}
	return out, nil
}

// measureSrv runs one point: a fresh file-backed store and server, conns
// open-loop clients at rateMops offered load, then the response-time split
// and the heap's persistence counters.
func measureSrv(cfg Config, name string, flushOps, conns int, rateMops float64) (Result, error) {
	dir, err := os.MkdirTemp("", "pcomb-srv-")
	if err != nil {
		return Result{}, err
	}
	defer os.RemoveAll(dir)
	h, _, err := pmem.OpenFile(filepath.Join(dir, "srv.heap"), pmem.FileOpts{
		Sync: pmem.SyncNone,
		Cfg:  cfg.Persist,
	})
	if err != nil {
		return Result{}, err
	}
	defer h.Close()
	st := pcomb.NewServerStoreOn(h, pcomb.ServerOptions{
		Threads:  conns,
		Kind:     pcomb.Blocking,
		FlushOps: flushOps,
	})
	defer st.Close()
	srv := server.New(st, server.Options{FlushOps: flushOps})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return Result{}, err
	}
	defer srv.Close()

	per := cfg.Ops / uint64(conns)
	if per == 0 {
		per = 1
	}
	// Offered load is rateMops across all connections: mean inter-arrival gap
	// per connection in ns.
	gapNs := float64(conns) * 1e3 / rateMops

	resp := obs.NewShardedHist(conns)
	qdelay := obs.NewShardedHist(conns)
	service := obs.NewShardedHist(conns)

	h.ResetStats()
	var wg sync.WaitGroup
	errc := make(chan error, conns)
	start := time.Now()
	for ci := 0; ci < conns; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			if err := srvClient(addr.String(), ci, per, gapNs, resp, qdelay, service); err != nil {
				select {
				case errc <- err:
				default:
				}
			}
		}(ci)
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errc:
		return Result{}, err
	default:
	}
	srv.Close()

	ops := per * uint64(conns)
	stats := h.Stats()
	res := Result{
		Algorithm:    name,
		Threads:      conns,
		Ops:          ops,
		Elapsed:      elapsed,
		Mops:         float64(ops) / elapsed.Seconds() / 1e6,
		PwbsPerOp:    float64(stats.Pwbs) / float64(ops),
		PfencesPerOp: float64(stats.Pfences) / float64(ops),
		PsyncsPerOp:  float64(stats.Psyncs) / float64(ops),
		Extra:        map[string]float64{},
	}
	rh, qh, sh := resp.Snapshot(), qdelay.Snapshot(), service.Snapshot()
	res.Extra["offered-mops"] = rateMops
	// Server points sit well below 1 Mops (real TCP round trips): a Kops
	// restatement keeps the printed table legible at its one-decimal format.
	res.Extra["achieved-kops"] = res.Mops * 1e3
	res.Extra["resp-mean-ns"] = rh.Mean()
	res.Extra["resp-p50-ns"] = rh.Quantile(0.50)
	res.Extra["resp-p99-ns"] = rh.Quantile(0.99)
	res.Extra["resp-p999-ns"] = rh.Quantile(0.999)
	res.Extra["resp-max-ns"] = float64(rh.Max())
	res.Extra["qdelay-mean-ns"] = qh.Mean()
	res.Extra["qdelay-p99-ns"] = qh.Quantile(0.99)
	res.Extra["service-mean-ns"] = sh.Mean()
	res.Extra["service-p99-ns"] = sh.Quantile(0.99)
	bh := srv.BatchStats()
	res.Extra["srv-batch-mean"] = bh.Mean()
	res.Extra["srv-batch-p99"] = bh.Quantile(0.99)
	return res, nil
}

// srvClient is one open-loop connection: a writer issues SET/GET commands on
// an absolute Poisson schedule (a slow server never delays later arrivals —
// lateness shows up as queueing delay), a reader matches replies to arrivals
// in order (RESP replies are strictly ordered per connection). A final WAIT
// settles the staged tail so every measured command has a reply.
func srvClient(addr string, tid int, per uint64, gapNs float64,
	resp, qdelay, service *obs.ShardedHist) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)

	type point struct {
		arrival int64
		start   int64
		measure bool
	}
	// Capacity per+1 so the writer never blocks on a slow reader: the open
	// loop must keep its schedule even when the server is the bottleneck.
	pts := make(chan point, per+1)
	var rerr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		for p := range pts {
			if err := readSrvReply(br); err != nil {
				rerr = err
				return
			}
			if !p.measure {
				continue
			}
			end := obs.Now()
			resp.Record(tid, uint64(end-p.arrival))
			qdelay.Record(tid, uint64(p.start-p.arrival))
			service.Record(tid, uint64(end-p.start))
		}
	}()

	rng := rand.New(rand.NewSource(int64(tid)*2654435761 + 7))
	next := float64(obs.Now())
	for i := uint64(0); i < per; i++ {
		next += rng.ExpFloat64() * gapNs
		arrival := int64(next)
		for {
			now := obs.Now()
			if now >= arrival {
				break
			}
			// Sleep off long gaps, spin through the last stretch: the arrival
			// edge stays sharp without burning a core per connection.
			if wait := arrival - now; wait > 100_000 {
				time.Sleep(time.Duration(wait-50_000) * time.Nanosecond)
			} else {
				runtime.Gosched()
			}
		}
		p := point{arrival: arrival, start: obs.Now(), measure: true}
		key := "k" + strconv.Itoa(rng.Intn(256))
		if i%2 == 0 {
			writeSrvCommand(bw, "SET", key, strconv.FormatUint(i+1, 10))
		} else {
			writeSrvCommand(bw, "GET", key)
		}
		if err := bw.Flush(); err != nil {
			close(pts)
			<-done
			return err
		}
		pts <- p // never blocks: capacity covers every command plus the WAIT
	}
	// WAIT commits the staged window and is itself replied to, so the reader
	// drains exactly len(pts) replies and every measured op is settled.
	writeSrvCommand(bw, "WAIT")
	ferr := bw.Flush()
	pts <- point{}
	close(pts)
	<-done
	if rerr != nil {
		return rerr
	}
	return ferr
}

// writeSrvCommand frames one RESP multibulk command.
func writeSrvCommand(bw *bufio.Writer, args ...string) {
	fmt.Fprintf(bw, "*%d\r\n", len(args))
	for _, a := range args {
		fmt.Fprintf(bw, "$%d\r\n%s\r\n", len(a), a)
	}
}

// readSrvReply consumes exactly one RESP reply; -ERR is a hard failure (the
// benchmark workload never provokes one).
func readSrvReply(br *bufio.Reader) error {
	line, err := br.ReadString('\n')
	if err != nil {
		return err
	}
	if len(line) < 3 {
		return fmt.Errorf("short reply %q", line)
	}
	switch line[0] {
	case '+', ':':
		return nil
	case '-':
		return fmt.Errorf("server error: %s", strings.TrimSpace(line[1:]))
	case '$':
		n, err := strconv.Atoi(strings.TrimSpace(line[1:]))
		if err != nil {
			return fmt.Errorf("bad bulk header %q", line)
		}
		if n < 0 {
			return nil // $-1 null
		}
		if _, err := io.CopyN(io.Discard, br, int64(n)+2); err != nil {
			return err
		}
		return nil
	}
	return fmt.Errorf("unexpected reply %q", line)
}
