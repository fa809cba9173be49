// Package server is a durable RESP2 front end for the combining structures:
// each connection goroutine stages commands into the async Submit/Flush
// pipeline (vecbatch) over a file-backed map/queue and a flush policy
// commits the staged vector at a size cap or when the client has nothing
// more in flight, so the per-op persistence cost is paid once per batch and
// no command waits for a timer — the paper's combining argument applied to a
// server's per-connection write path.
//
// This file is the wire protocol: a bounded RESP2 command reader (arrays of
// bulk strings plus the inline form) and the reply writers. Malformed input
// splits into two classes: recoverable command errors (unknown command, bad
// arity, non-numeric argument) get a -ERR reply and the connection
// continues, while framing errors (bad type byte, oversized or negative
// lengths, truncated frames) are ErrProtocol — after those the byte stream
// has no trustworthy resynchronization point, so the server replies -ERR
// and closes, exactly like Redis.
package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
)

// Frame bounds. RESP has no framing beyond the declared lengths, so both
// must be capped before allocation or the peer controls our memory.
const (
	// MaxArgs bounds the element count of a command array.
	MaxArgs = 128
	// MaxArgBytes bounds a single bulk-string argument.
	MaxArgBytes = 512 * 1024
	// maxInlineBytes bounds one inline-command line.
	maxInlineBytes = 64 * 1024
)

// ErrProtocol marks unrecoverable framing errors; the connection must be
// closed after reporting it.
var ErrProtocol = errors.New("protocol error")

func protoErrf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrProtocol, fmt.Sprintf(format, args...))
}

// Command is one decoded client command. Name is upper-cased. Args holds the
// remaining arguments, aliased into the buffer of the Decoder that read them:
// like the words Decoder.Read returns, they are valid until the next read on
// this connection, so a caller that keeps an argument past that must copy it.
type Command struct {
	Name string
	Args [][]byte
}

// maxKeptArgBytes is the largest argument buffer a Decoder keeps from one
// command to the next; a command that needed more gives it back to the
// collector, so one huge SET does not pin its size for the connection's life.
const maxKeptArgBytes = 64 * 1024

// Decoder reads the commands of one connection. It owns the storage of the
// command it last returned — argument bytes, the argument slice, the header
// line — and reuses it for the next, so steady-state decoding allocates
// nothing.
type Decoder struct {
	br   *bufio.Reader
	buf  []byte   // the current command's words, back to back
	ends []int    // end offset in buf of each word
	args [][]byte // the words as slices of buf, built once buf has stopped growing
	line [32]byte // a `*`/`$` header's digits

	// inFrame is true from a frame's first byte until its command is
	// returned: a read that blocks now blocks inside a frame. frames counts
	// the frames begun, so the reader can tell one frame's reads from the
	// next's.
	inFrame bool
	frames  int
}

// NewDecoder returns a Decoder reading from br, with room for an ordinary
// command so that even a Decoder used once grows nothing.
func NewDecoder(br *bufio.Reader) *Decoder {
	return &Decoder{br: br, buf: make([]byte, 0, 64), ends: make([]int, 0, 4), args: make([][]byte, 0, 4)}
}

// ReadCommand decodes one command from br with a Decoder of its own; a
// caller reading a stream of commands keeps one Decoder instead.
func ReadCommand(br *bufio.Reader) (Command, error) {
	words, err := NewDecoder(br).Read()
	if err != nil {
		return Command{}, err
	}
	return Command{Name: string(words[0]), Args: words[1:]}, nil
}

// Read decodes the next command: either a RESP array of bulk strings
// (`*N\r\n` then N × `$len\r\n<bytes>\r\n`) or an inline command
// (space-separated words on one line). Empty inline lines and empty arrays
// are skipped. It returns the command's words, at least one: the name,
// upper-cased in place, then the arguments. They alias the Decoder's buffer
// and are valid until the next Read. Any non-nil error besides io.EOF wraps
// ErrProtocol or the underlying I/O failure; the caller should close the
// connection.
func (d *Decoder) Read() ([][]byte, error) {
	if cap(d.buf) > maxKeptArgBytes {
		d.buf = nil
	}
	for {
		d.inFrame = false
		d.buf, d.ends = d.buf[:0], d.ends[:0]
		b, err := d.br.ReadByte()
		if err != nil {
			return nil, err
		}
		d.inFrame = true
		d.frames++
		if b == '*' {
			err = d.readArray()
		} else if err = d.br.UnreadByte(); err == nil {
			err = d.readInline()
		}
		if err != nil {
			return nil, err
		}
		if len(d.ends) > 0 {
			return d.words(), nil
		}
		// blank inline line or empty array: no command, keep reading
	}
}

// readArray decodes the rest of a `*N` frame into the word buffer.
func (d *Decoder) readArray() error {
	n, err := d.readLineInt()
	if err != nil {
		return err
	}
	if n < 0 || n > MaxArgs {
		return protoErrf("invalid multibulk length %d", n)
	}
	for i := int64(0); i < n; i++ {
		if err := d.readBulk(); err != nil {
			return err
		}
	}
	return nil
}

// readBulk decodes one `$len\r\n<bytes>\r\n` frame as the next word.
func (d *Decoder) readBulk() error {
	b, err := d.br.ReadByte()
	if err != nil {
		return eofIsProto(err)
	}
	if b != '$' {
		return protoErrf("expected '$', got %q", b)
	}
	n, err := d.readLineInt()
	if err != nil {
		return err
	}
	if n < 0 || n > MaxArgBytes {
		return protoErrf("invalid bulk length %d", n)
	}
	off := len(d.buf)
	d.buf = slices.Grow(d.buf, int(n)+2)[:off+int(n)+2]
	if _, err := io.ReadFull(d.br, d.buf[off:]); err != nil {
		return eofIsProto(err)
	}
	if d.buf[off+int(n)] != '\r' || d.buf[off+int(n)+1] != '\n' {
		return protoErrf("bulk string not CRLF-terminated")
	}
	d.buf = d.buf[:off+int(n)]
	d.ends = append(d.ends, len(d.buf))
	return nil
}

// readLineInt reads a CRLF-terminated decimal integer (the length part of a
// `*`/`$` header, whose type byte the caller already consumed), rejecting
// bare CR/LF and lines longer than any length can be.
func (d *Decoder) readLineInt() (int64, error) {
	line := d.line[:0]
	for {
		b, err := d.br.ReadByte()
		if err != nil {
			return 0, eofIsProto(err)
		}
		if b == '\n' {
			return 0, protoErrf("bare LF in header")
		}
		if b == '\r' {
			nb, err := d.br.ReadByte()
			if err != nil {
				return 0, eofIsProto(err)
			}
			if nb != '\n' {
				return 0, protoErrf("bare CR in header")
			}
			break
		}
		if len(line) == len(d.line) {
			return 0, protoErrf("header line too long")
		}
		line = append(line, b)
	}
	n, err := strconv.ParseInt(string(line), 10, 64)
	if err != nil {
		return 0, protoErrf("bad length %q", line)
	}
	return n, nil
}

// readInline decodes one inline command line into the word buffer (no words
// for a blank line).
func (d *Decoder) readInline() error {
	line, err := d.br.ReadSlice('\n')
	if err != nil {
		if errors.Is(err, bufio.ErrBufferFull) || len(line) > maxInlineBytes {
			return protoErrf("inline command too long")
		}
		return eofIsProto(err)
	}
	line = trimCRLF(line)
	for i := 0; i < len(line); {
		for i < len(line) && line[i] == ' ' {
			i++
		}
		start := i
		for i < len(line) && line[i] != ' ' {
			i++
		}
		if i > start {
			if len(d.ends) >= MaxArgs {
				return protoErrf("inline command has too many arguments")
			}
			// Copy: ReadSlice's buffer is invalidated by the next read.
			d.buf = append(d.buf, line[start:i]...)
			d.ends = append(d.ends, len(d.buf))
		}
	}
	return nil
}

func trimCRLF(line []byte) []byte {
	if n := len(line); n > 0 && line[n-1] == '\n' {
		line = line[:n-1]
	}
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line
}

// words slices the word buffer into the command's words and upper-cases the
// first. They are cut only now because the buffer may have moved while later
// words were appended.
func (d *Decoder) words() [][]byte {
	d.args = d.args[:0]
	start := 0
	for _, end := range d.ends {
		d.args = append(d.args, d.buf[start:end:end])
		start = end
	}
	for i, c := range d.args[0] {
		if 'a' <= c && c <= 'z' {
			d.args[0][i] = c - ('a' - 'A')
		}
	}
	return d.args
}

// eofIsProto upgrades an EOF inside a frame to a protocol error: the stream
// ended mid-command, which is a truncated frame, not a clean close.
func eofIsProto(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return protoErrf("truncated frame")
	}
	return err
}

// ---- Reply writers ----

func writeSimple(bw *bufio.Writer, s string) {
	bw.WriteByte('+')
	bw.WriteString(s)
	bw.WriteString("\r\n")
}

func writeError(bw *bufio.Writer, msg string) {
	bw.WriteString("-ERR ")
	bw.WriteString(msg)
	bw.WriteString("\r\n")
}

// The numeric writers format into the writer's own free space
// (AvailableBuffer), so a reply costs no scratch and no allocation.

func writeInt(bw *bufio.Writer, v uint64) {
	b := append(bw.AvailableBuffer(), ':')
	b = strconv.AppendUint(b, v, 10)
	bw.Write(append(b, '\r', '\n'))
}

// writeBulkUint writes a uint64 as a bulk-string decimal (values are uint64
// words; clients see them as Redis string values).
func writeBulkUint(bw *bufio.Writer, v uint64) {
	digits := 1
	for x := v; x >= 10; x /= 10 {
		digits++
	}
	b := append(bw.AvailableBuffer(), '$')
	b = strconv.AppendInt(b, int64(digits), 10)
	b = append(b, '\r', '\n')
	b = strconv.AppendUint(b, v, 10)
	bw.Write(append(b, '\r', '\n'))
}

func writeNull(bw *bufio.Writer) {
	bw.WriteString("$-1\r\n")
}
