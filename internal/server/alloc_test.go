package server_test

import (
	"bufio"
	"fmt"
	"net"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"pcomb"
	"pcomb/internal/server"
	"pcomb/internal/testutil"
)

// rtClient is a request/reply client that allocates nothing per command: the
// frames are built once and replies are read in place. It exists so that a
// process-wide malloc count measures the server.
type rtClient struct {
	conn   net.Conn
	br     *bufio.Reader
	frames [][]byte
}

// respFrame encodes one command as a RESP array of bulk strings.
func respFrame(args ...string) []byte {
	b := fmt.Appendf(nil, "*%d\r\n", len(args))
	for _, a := range args {
		b = fmt.Appendf(b, "$%d\r\n%s\r\n", len(a), a)
	}
	return b
}

// dialRT connects and builds a cycle of GET/SET/INCRBY/LPUSH/RPOP frames on
// keys private to id.
func dialRT(tb testing.TB, addr string, id int) *rtClient {
	tb.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		tb.Fatalf("dial: %v", err)
	}
	tb.Cleanup(func() { conn.Close() })
	cl := &rtClient{conn: conn, br: bufio.NewReader(conn)}
	for k := 0; k < 8; k++ {
		key := fmt.Sprintf("c%d:k%d", id, k)
		cl.frames = append(cl.frames,
			respFrame("SET", key, strconv.Itoa(1000+k)),
			respFrame("GET", key),
			respFrame("INCRBY", key, "3"),
			respFrame("LPUSH", "jobs", strconv.Itoa(100*id+k)),
			respFrame("RPOP", "jobs"),
		)
	}
	return cl
}

// roundTrip sends frame i of the cycle and consumes its reply.
func (cl *rtClient) roundTrip(i int) error {
	if _, err := cl.conn.Write(cl.frames[i%len(cl.frames)]); err != nil {
		return err
	}
	line, err := cl.br.ReadSlice('\n')
	if err != nil {
		return err
	}
	switch {
	case line[0] == '-':
		return fmt.Errorf("error reply %q", line)
	case line[0] == '$' && line[1] != '-':
		_, err = cl.br.ReadSlice('\n') // the bulk payload
	}
	return err
}

// TestRoundTripAllocFree is the end-to-end allocation gate: socket → RESP →
// vecbatch → hashmap/queue → core → pmem → reply allocates (well) under once
// per command in steady state. The count is process-wide, so it also holds
// the test's own client to zero.
func TestRoundTripAllocFree(t *testing.T) {
	_, _, addr, _ := startServer(t, pcomb.ServerOptions{Threads: 2}, server.Options{})
	cl := dialRT(t, addr, 0)
	cl.frames = append(cl.frames, // the rest of the served set
		respFrame("GETSET", "c0:k0", "7"),
		respFrame("DEL", "c0:k0"),
		respFrame("GETDEL", "c0:k0"),
		respFrame("PING"),
		respFrame("WAIT", "0", "0"),
	)
	const n = 10_000
	for i := 0; i < 2*len(cl.frames); i++ { // warm-up: buffers reach working size
		if err := cl.roundTrip(i); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if err := cl.roundTrip(i); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perCmd := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("%.3f allocations, %.1f bytes per command", perCmd, float64(after.TotalAlloc-before.TotalAlloc)/n)
	if perCmd >= 0.5 {
		t.Fatalf("%.2f allocations per round-trip, want < 0.5", perCmd)
	}
}

// BenchmarkInteractiveConns is srv_interactive in miniature: 1, 2 and 8
// connections, one command in flight each, on a store that charges the
// simulated persistence cost. ops/psync is the cross-connection signal: a
// lone connection pays a fixed number of psyncs per command, so a higher
// figure with more connections means commands of different connections were
// served by one combining round.
func BenchmarkInteractiveConns(b *testing.B) {
	for _, conns := range []int{1, 2, 8} {
		b.Run(strconv.Itoa(conns), func(b *testing.B) {
			st, _, err := pcomb.OpenServerStore(pcomb.ServerOptions{Path: testutil.TempHeapPath(b), Threads: conns})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			srv := server.New(st, server.Options{})
			addr, err := srv.Start("127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			clients := make([]*rtClient, conns)
			for i := range clients {
				clients[i] = dialRT(b, addr.String(), i)
				for j := range clients[i].frames { // warm-up
					if err := clients[i].roundTrip(j); err != nil {
						b.Fatal(err)
					}
				}
			}
			psyncs := st.Heap().Stats().Psyncs
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for i, cl := range clients {
				n := b.N / conns
				if i < b.N%conns {
					n++
				}
				wg.Add(1)
				go func(cl *rtClient, n int) {
					defer wg.Done()
					for j := 0; j < n; j++ {
						if err := cl.roundTrip(j); err != nil {
							b.Error(err)
							return
						}
					}
				}(cl, n)
			}
			wg.Wait()
			b.StopTimer()
			if d := st.Heap().Stats().Psyncs - psyncs; d > 0 {
				b.ReportMetric(float64(b.N)/float64(d), "ops/psync")
			}
		})
	}
}
