package trace

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"io"
	"strconv"
)

// rowBufSize is the row reader's buffer: a quote-free line that fits is split
// in place, a longer one sends the rest of the input to encoding/csv.
const rowBufSize = 64 << 10

// rowReader reads comma-separated rows for both parsers, keeping at most
// maxFields fields of each (the rest of a row is not split). A quote-free line
// is split straight out of the bufio buffer into reused field slices, with
// encoding/csv's line handling: CRLF reads as LF, a CR before EOF is dropped
// and blank lines are skipped. At the first line holding a quote or
// overflowing the buffer, that line and the rest of the input go to
// encoding/csv with the lenient settings (LazyQuotes, variable-width rows),
// so the input language is exactly encoding/csv's.
//
// The fields returned by next are valid until its next call.
type rowReader struct {
	br        *bufio.Reader
	maxFields int
	fields    [][]byte

	cr  *csv.Reader // non-nil once the input fell back to encoding/csv
	buf []byte      // field bytes of a fallback row
}

func newRowReader(r io.Reader, maxFields int) *rowReader {
	return &rowReader{
		br:        bufio.NewReaderSize(r, rowBufSize),
		maxFields: maxFields,
		fields:    make([][]byte, 0, maxFields),
	}
}

// next returns the next non-blank row's fields, or io.EOF after the last row.
func (rr *rowReader) next() ([][]byte, error) {
	for rr.cr == nil {
		line, err := rr.br.ReadSlice('\n')
		if err != nil && err != io.EOF && err != bufio.ErrBufferFull {
			return nil, err
		}
		if err == bufio.ErrBufferFull || bytes.IndexByte(line, '"') >= 0 {
			rr.fallBack(line)
			break
		}
		if len(line) == 0 {
			return nil, io.EOF
		}
		if line = trimEOL(line); len(line) > 0 {
			return rr.split(line), nil
		}
	}
	rec, err := rr.cr.Read()
	if err != nil {
		return nil, err
	}
	rec = rec[:min(len(rec), rr.maxFields)]
	rr.buf = rr.buf[:0]
	for _, s := range rec {
		rr.buf = append(rr.buf, s...)
	}
	f, off := rr.fields[:0], 0
	for _, s := range rec {
		f = append(f, rr.buf[off:off+len(s)])
		off += len(s)
	}
	rr.fields = f
	return f, nil
}

// fallBack hands line, which ReadSlice returned and the next read would
// overwrite, and everything after it to encoding/csv.
func (rr *rowReader) fallBack(line []byte) {
	cr := csv.NewReader(io.MultiReader(bytes.NewReader(bytes.Clone(line)), rr.br))
	cr.FieldsPerRecord = -1
	cr.ReuseRecord = true
	cr.LazyQuotes = true
	rr.cr = cr
}

// trimEOL strips a line's terminator as encoding/csv reads it: LF or CRLF,
// or at EOF, where a line has no LF, one trailing CR.
func trimEOL(line []byte) []byte {
	n := len(line)
	if n > 0 && line[n-1] == '\n' {
		n--
	}
	if n > 0 && line[n-1] == '\r' {
		n--
	}
	return line[:n]
}

// split cuts a quote-free line at its commas into at most maxFields fields.
func (rr *rowReader) split(line []byte) [][]byte {
	f := rr.fields[:0]
	for {
		i := bytes.IndexByte(line, ',')
		if i < 0 {
			f = append(f, line)
			break
		}
		f = append(f, line[:i])
		if len(f) == rr.maxFields {
			break
		}
		line = line[i+1:]
	}
	rr.fields = f
	return f
}

// pow10 holds the powers of ten float64 represents exactly and parseFloat
// divides by.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// parseFloat is strconv.ParseFloat(string(b), 64), bit for bit. A plain
// digits[.digits] value of at most 15 digits is m/10^k with m and 10^k exact
// in float64, so one correctly rounded division is the nearest float64 to
// the value (Clinger's fast path, which strconv takes too). Every other form
// goes through strconv.
func parseFloat(b []byte) (float64, error) {
	var m uint64
	digits, point := 0, -1
	for i, c := range b {
		switch {
		case c >= '0' && c <= '9':
			m = m*10 + uint64(c-'0')
			digits++
		case c == '.' && point < 0:
			point = i
		default:
			return strconv.ParseFloat(string(b), 64)
		}
	}
	if digits == 0 || digits >= len(pow10) || point == 0 || point == len(b)-1 {
		return strconv.ParseFloat(string(b), 64)
	}
	if point < 0 {
		return float64(m), nil
	}
	return float64(m) / pow10[len(b)-1-point], nil
}
