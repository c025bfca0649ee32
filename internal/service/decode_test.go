package service

import (
	"bytes"
	"math"
	"reflect"
	"testing"
)

// numberBodies makes a zero value of each body decodeNumbers parses.
var numberBodies = []func() numberBody{
	func() numberBody { return new(decideRequest) },
	func() numberBody { return new(completeRequest) },
}

// numberValue flattens a number body into comparable values: every
// float as its bit pattern, and an absent now as nil.
func numberValue(v numberBody) []any {
	now := func(p *float64) any {
		if p == nil {
			return nil
		}
		return math.Float64bits(*p)
	}
	switch r := v.(type) {
	case *decideRequest:
		return []any{r.Type, math.Float64bits(r.Deadline), math.Float64bits(r.Value), now(r.Now)}
	case *completeRequest:
		return []any{r.TaskID, now(r.Now)}
	}
	panic("unknown number body")
}

// FuzzDecodeRequest checks decodeNumbers against the strict decoder: for
// every body type it parses, a body it accepts must be accepted by the
// json.Decoder path with an equal value, and a body it refuses must leave
// the value untouched.
func FuzzDecodeRequest(f *testing.F) {
	for _, s := range []string{
		`{"type": 3, "deadline": 12.5, "value": 2, "now": 10.25}`,
		`{"task_id":7,"now":3e-2}` + "\n",
		`{"now": -1.5E+3}`,
		`{"Type": 1, "deadline": 2}`,
		`{"task_id": null}`,
		`{"now": null}`,
		`{"task_id": 1, "now": 2, "task_id": 3}`,
		`{"task_id": 1e2}`,
		`{"task_id": 1.0}`,
		`{"task_id": -0, "deadline": -0, "now": -0}`,
		`{"task_id": 01}`,
		`{"deadline": 1e400, "now": 1e400}`,
		`{"\u0074ype": 1}`,
		"\xef\xbb\xbf{\"task_id\": 1}",
		`{}`,
		` { } `,
		`{"task_id": 1} trailing`,
		`{"task_id": 1}{}`,
		`{"task_id": 9223372036854775808}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, zero := range numberBodies {
			fast, strict := zero(), zero()
			if !decodeNumbers(b, fast) {
				if !reflect.DeepEqual(fast, zero()) {
					t.Fatalf("%T: refused %q but stored %v", fast, b, numberValue(fast))
				}
				continue
			}
			if err := decodeStrict(bytes.NewReader(b), strict); err != nil {
				t.Fatalf("%T: fast path accepted %q, the decoder refused it: %v", fast, b, err)
			}
			if got, want := numberValue(fast), numberValue(strict); !reflect.DeepEqual(got, want) {
				t.Fatalf("%T %q: fast path decoded %v, the decoder %v", fast, b, got, want)
			}
		}
	})
}

// rereader is a request body that can be reset and read again.
type rereader struct{ bytes.Reader }

func (*rereader) Close() error { return nil }
