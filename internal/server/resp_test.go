package server

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
)

// respCorpus is the shared decoder corpus: every wire form the server must
// accept, and every malformed frame it must reject without panicking. The
// fuzz harness seeds from the same table.
var respCorpus = []struct {
	name string
	in   string
	want []string // command words, nil when err is expected
	err  bool     // a framing (ErrProtocol/EOF-class) error is expected
}{
	{"multibulk ping", "*1\r\n$4\r\nPING\r\n", []string{"PING"}, false},
	{"multibulk set", "*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$2\r\n42\r\n", []string{"SET", "k", "42"}, false},
	{"lowercase name upcased", "*1\r\n$4\r\nping\r\n", []string{"PING"}, false},
	{"empty bulk arg", "*2\r\n$3\r\nGET\r\n$0\r\n\r\n", []string{"GET", ""}, false},
	{"binary-safe arg", "*2\r\n$3\r\nGET\r\n$4\r\na\r\nb\r\n", []string{"GET", "a\r\nb"}, false},
	{"inline command", "PING\r\n", []string{"PING"}, false},
	{"inline args", "set k 5\r\n", []string{"SET", "k", "5"}, false},
	{"inline extra spaces", "  GET   k  \r\n", []string{"GET", "k"}, false},
	{"inline LF only", "PING\n", []string{"PING"}, false},
	{"blank line skipped", "\r\nPING\r\n", []string{"PING"}, false},
	{"empty array skipped", "*0\r\nPING\r\n", []string{"PING"}, false},
	// The second and third words outgrow a decoder's word buffer after
	// earlier words were already placed in it.
	{"args grow the buffer mid-command", "*4\r\n$3\r\nSET\r\n$1\r\nk\r\n$40\r\n" + strings.Repeat("a", 40) + "\r\n$200\r\n" + strings.Repeat("b", 200) + "\r\n",
		[]string{"SET", "k", strings.Repeat("a", 40), strings.Repeat("b", 200)}, false},

	{"negative multibulk", "*-1\r\n", nil, true},
	{"oversized multibulk", "*129\r\n", nil, true},
	{"huge multibulk", "*99999999\r\n", nil, true},
	{"garbage multibulk len", "*abc\r\n", nil, true},
	{"negative bulk len", "*1\r\n$-1\r\n", nil, true},
	{"oversized bulk len", "*1\r\n$9999999\r\n", nil, true},
	{"missing bulk header", "*1\r\nPING\r\n", nil, true},
	{"bulk not terminated", "*1\r\n$4\r\nPINGxy", nil, true},
	{"truncated header", "*1\r\n$4", nil, true},
	{"truncated payload", "*2\r\n$3\r\nGET\r\n$5\r\nab", nil, true},
	{"bare LF in header", "*1\n$4\r\nPING\r\n", nil, true},
	{"bare CR in header", "*1\rx$4\r\nPING\r\n", nil, true},
}

func TestReadCommandCorpus(t *testing.T) {
	for _, tc := range respCorpus {
		t.Run(tc.name, func(t *testing.T) {
			cmd, err := ReadCommand(bufio.NewReader(strings.NewReader(tc.in)))
			if tc.err {
				if err == nil {
					t.Fatalf("ReadCommand(%q) = %v, want error", tc.in, cmd)
				}
				if errors.Is(err, io.EOF) {
					t.Fatalf("ReadCommand(%q): clean EOF for a malformed frame", tc.in)
				}
				return
			}
			if err != nil {
				t.Fatalf("ReadCommand(%q): %v", tc.in, err)
			}
			if got := flat(cmd); !slices.Equal(got, tc.want) {
				t.Fatalf("got %q, want %q", got, tc.want)
			}
		})
	}
}

func argStrings(args [][]byte) []string {
	out := make([]string, len(args))
	for i, a := range args {
		out[i] = string(a)
	}
	return out
}

// flat flattens a command for comparison.
func flat(cmd Command) []string {
	return append([]string{cmd.Name}, argStrings(cmd.Args)...)
}

// TestReadCommandSplitReads re-parses every accepted corpus entry, twice in a
// row on one Decoder, through a one-byte-at-a-time reader: frame decoding
// must be oblivious to how the kernel fragments the stream, and a command
// must not see what the previous one left in the decoder's storage.
func TestReadCommandSplitReads(t *testing.T) {
	for _, tc := range respCorpus {
		if tc.err {
			continue
		}
		d := NewDecoder(bufio.NewReader(iotest.OneByteReader(strings.NewReader(tc.in + tc.in))))
		for i := 0; i < 2; i++ {
			words, err := d.Read()
			if err != nil {
				t.Fatalf("%s: split read %d: %v", tc.name, i, err)
			}
			if got := argStrings(words); !slices.Equal(got, tc.want) {
				t.Fatalf("%s: split read %d decoded %q, want %q", tc.name, i, got, tc.want)
			}
		}
	}
}

// TestDecoderAllocFree is the decoder's allocation gate: over the accepted
// corpus, back to back on one Decoder, a command costs no allocation once
// the storage has reached its working size.
func TestDecoderAllocFree(t *testing.T) {
	var stream []byte
	cmds := 0
	for _, tc := range respCorpus {
		if !tc.err {
			stream = append(stream, tc.in...)
			cmds++
		}
	}
	src := bytes.NewReader(stream)
	br := bufio.NewReader(src)
	d := NewDecoder(br)
	pass := func() {
		src.Reset(stream)
		br.Reset(src)
		for i := 0; i < cmds; i++ {
			if _, err := d.Read(); err != nil {
				t.Fatalf("command %d: %v", i, err)
			}
		}
	}
	pass()
	if n := testing.AllocsPerRun(50, pass); n != 0 {
		t.Fatalf("%.1f allocations per pass of %d commands, want 0", n, cmds)
	}
}

// TestReadCommandPipelined decodes several commands back to back from one
// buffer (the server's actual read pattern under load).
func TestReadCommandPipelined(t *testing.T) {
	in := "*1\r\n$4\r\nPING\r\n*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\n7\r\nGET k\r\n"
	br := bufio.NewReader(strings.NewReader(in))
	want := [][]string{{"PING"}, {"SET", "k", "7"}, {"GET", "k"}}
	for i, w := range want {
		cmd, err := ReadCommand(br)
		if err != nil {
			t.Fatalf("command %d: %v", i, err)
		}
		if cmd.Name != w[0] || len(cmd.Args) != len(w)-1 {
			t.Fatalf("command %d: got %s/%d args, want %v", i, cmd.Name, len(cmd.Args), w)
		}
	}
	if _, err := ReadCommand(br); !errors.Is(err, io.EOF) {
		t.Fatalf("after last command: %v, want io.EOF", err)
	}
}

func TestReplyWriters(t *testing.T) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	writeSimple(bw, "OK")
	writeError(bw, "boom")
	writeInt(bw, 42)
	writeBulkUint(bw, 1234)
	writeNull(bw)
	bw.Flush()
	want := "+OK\r\n-ERR boom\r\n:42\r\n$4\r\n1234\r\n$-1\r\n"
	if buf.String() != want {
		t.Fatalf("replies = %q, want %q", buf.String(), want)
	}
}

func TestHashKeyDomain(t *testing.T) {
	keys := []string{"", "a", "k1", "k1.0", strings.Repeat("x", 1000), "\x00\xff"}
	seen := map[uint64]string{}
	for _, k := range keys {
		h := HashKey(k)
		if h == 0 || h > MaxValue {
			t.Fatalf("HashKey(%q) = %#x outside [1, 2^64-3]", k, h)
		}
		if prev, dup := seen[h]; dup {
			t.Fatalf("HashKey collision between %q and %q in tiny corpus", prev, k)
		}
		seen[h] = k
	}
}

// FuzzRESPParse drains arbitrary bytes, doubled so that an input holding one
// command yields two in a row, through a Decoder: it must terminate, never
// panic, and classify every outcome as a command, a clean EOF, or an error —
// the "malformed input never wedges the loop" contract. Each command is
// checked against a fresh one-shot decode of the same stream, whose storage
// nothing reuses: a word that aliases the previous command's bytes, or its
// neighbour's, shows up as a difference.
func FuzzRESPParse(f *testing.F) {
	for _, tc := range respCorpus {
		f.Add([]byte(tc.in))
	}
	f.Add([]byte("*2\r\n$3\r\nDEL\r\n$1\r\nk\r\n*1\r\n$4\r\nPING\r\n"))
	f.Add([]byte("$5\r\nhello\r\n"))
	f.Add([]byte("*1\r\n*1\r\n$4\r\nPING\r\n"))
	f.Add(bytes.Repeat([]byte("*0\r\n"), 50))
	f.Fuzz(func(t *testing.T, data []byte) {
		stream := append(append([]byte(nil), data...), data...)
		d := NewDecoder(bufio.NewReader(bytes.NewReader(stream)))
		ref := bufio.NewReader(bytes.NewReader(stream))
		for i := 0; i < 1000; i++ {
			words, err := d.Read()
			want, wantErr := ReadCommand(ref)
			if (err == nil) != (wantErr == nil) || errors.Is(err, io.EOF) != errors.Is(wantErr, io.EOF) {
				t.Fatalf("command %d: reusing decoder: %v, one-shot: %v", i, err, wantErr)
			}
			if err != nil {
				return // EOF or a reported error: both fine, loop ended
			}
			if !slices.Equal(argStrings(words), flat(want)) {
				t.Fatalf("command %d: reusing decoder read %q, one-shot %q", i, words, flat(want))
			}
			for j, w := range words {
				if cap(w) != len(w) {
					t.Fatalf("command %d: word %d can be appended into its neighbour", i, j)
				}
			}
		}
		// 1000 commands from a fuzz input is fine too — just bounded.
	})
}
