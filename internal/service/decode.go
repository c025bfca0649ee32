package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync"
)

// bodyBufs holds the buffers decodeBody reads number bodies into. A
// decide body is about 60 bytes; a body that does not fit takes the
// decoder.
var bodyBufs = sync.Pool{New: func() any { return new([512]byte) }}

// decodeBody strictly decodes a JSON request body into v: unknown fields
// and anything but whitespace after the one JSON value are rejected, and
// the body is capped at 1 MiB. A numberBody is first read into a
// pooled buffer and, when it is in canonical form, parsed there by
// decodeNumbers; any other body goes to the json.Decoder, which then
// reads the buffered prefix followed by the unread rest of the body. The
// prefix is far below the cap, so only that stream can reach it.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body := r.Body
	if nb, ok := v.(numberBody); ok {
		buf := bodyBufs.Get().(*[512]byte)
		defer bodyBufs.Put(buf)
		var n int
		var err error
		for n < len(buf) && err == nil {
			var k int
			k, err = r.Body.Read(buf[n:])
			n += k
		}
		if err == io.EOF && decodeNumbers(buf[:n], nb) {
			return true
		}
		var rest io.Reader = r.Body
		if err != nil {
			rest = failedReader{err}
		}
		body = io.NopCloser(io.MultiReader(bytes.NewReader(buf[:n]), rest))
	}
	if err := decodeStrict(http.MaxBytesReader(w, body, 1<<20), v); err != nil {
		apiError(w, http.StatusBadRequest, CodeInvalidRequest, "decoding request: %v", err)
		return false
	}
	return true
}

// decodeStrict decodes the one JSON value in body into v, rejecting
// unknown fields and anything but whitespace after the value.
func decodeStrict(body io.Reader, v any) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		err = onlySpace(dec.Buffered())
	}
	if err == nil {
		err = onlySpace(body)
	}
	return err
}

// failedReader replays the error that ended the read of a body prefix
// (io.EOF included) to the decoder that reads on after the prefix.
type failedReader struct{ err error }

func (f failedReader) Read([]byte) (int, error) { return 0, f.err }

// onlySpace reads r to its end and fails unless all it held was JSON
// whitespace. Decoder.Token would answer the same question, but when a
// newline follows the value it grows the decoder's buffer by 1.5 KB.
func onlySpace(r io.Reader) error {
	var buf [16]byte
	for {
		n, err := r.Read(buf[:])
		for _, c := range buf[:n] {
			if !isSpace(c) {
				return errors.New("trailing data after the JSON value")
			}
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }

// numberMember is one member of an all-number request body. An int member
// is parsed with strconv.ParseInt(s, 10, 64), any other with
// strconv.ParseFloat(s, 64): the calls encoding/json makes.
type numberMember struct {
	name  string
	isInt bool
}

// numberBody is a request body whose members are all numbers (decide,
// complete), so decodeNumbers can parse it.
type numberBody interface {
	// members lists the body's JSON members, at most four.
	members() []numberMember
	// set stores member i's value: n for an int member, f otherwise.
	set(i int, n int64, f float64)
}

// decodeNumbers parses b when it is the canonical form of v: valid JSON
// (json.Valid, the decoder's own grammar) holding one object of v's
// members, each name exact and unescaped and each value a number that
// strconv accepts. A repeated member keeps its last value, as with
// encoding/json. It stores nothing unless all of b parses, and reports
// whether it did; anything else (a name in another case, an unknown
// member, null, an escape, a syntax error, trailing data) is left to
// decodeStrict, which accepts every body this accepts with the same value.
func decodeNumbers(b []byte, v numberBody) bool {
	if !json.Valid(b) {
		return false
	}
	ms := v.members()
	var vals [4]struct {
		n    int64
		f    float64
		seen bool
	}
	i := skipSpace(b, 0)
	if b[i] != '{' {
		return false
	}
	// b is valid JSON, so each name is followed by a colon, each value by
	// a comma or the closing brace, and the brace by whitespace alone.
	for i = skipSpace(b, i+1); b[i] == '"'; {
		end := i + 1 + bytes.IndexByte(b[i+1:], '"')
		k := 0
		for k < len(ms) && ms[k].name != string(b[i+1:end]) {
			k++
		}
		if k == len(ms) {
			return false
		}
		// No other JSON value (string, object, array, true, false, null)
		// is a number strconv accepts.
		i = skipSpace(b, skipSpace(b, end+1)+1)
		j := i
		for j < len(b) && b[j] != ',' && b[j] != '}' && !isSpace(b[j]) {
			j++
		}
		lit := string(b[i:j])
		var err error
		if ms[k].isInt {
			vals[k].n, err = strconv.ParseInt(lit, 10, 64)
			if int64(int(vals[k].n)) != vals[k].n {
				return false // overflows int, as json's OverflowInt check
			}
		} else {
			vals[k].f, err = strconv.ParseFloat(lit, 64)
		}
		if err != nil {
			return false
		}
		vals[k].seen = true
		if i = skipSpace(b, j); b[i] == ',' {
			i = skipSpace(b, i+1)
		}
	}
	for k := range ms {
		if vals[k].seen {
			v.set(k, vals[k].n, vals[k].f)
		}
	}
	return true
}

// skipSpace returns the index of the first non-whitespace byte of b at or
// after i, or len(b).
func skipSpace(b []byte, i int) int {
	for i < len(b) && isSpace(b[i]) {
		i++
	}
	return i
}
