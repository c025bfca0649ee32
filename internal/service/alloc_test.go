//go:build !race

package service

import (
	"net/http/httptest"
	"testing"
)

// The race runtime drops a random share of sync.Pool.Put calls on purpose,
// so under -race decodeBody's pooled buffer is sometimes allocated afresh
// and the zero-allocation claim below does not hold.

// TestDecodeBodyAllocatesNothing pins the fast path's cost: once the
// buffer pool is warm, decoding a canonical decide or complete body
// allocates nothing.
func TestDecodeBodyAllocatesNothing(t *testing.T) {
	w := httptest.NewRecorder()
	r := httptest.NewRequest("POST", "/", nil)
	body := new(rereader)
	r.Body = body
	var (
		decide   decideRequest
		complete completeRequest
	)
	for _, tc := range []struct {
		body string
		v    any
	}{
		{`{"type":3,"deadline":412.75,"now":380.5}` + "\n", &decide},
		{`{"task_id":1047,"now":395.125}` + "\n", &complete},
	} {
		b := []byte(tc.body)
		run := func() {
			body.Reset(b)
			if !decodeBody(w, r, tc.v) {
				t.Fatalf("%s: refused: %s", tc.body, w.Body)
			}
		}
		run()
		if n := testing.AllocsPerRun(100, run); n != 0 {
			t.Errorf("decoding %s: %v allocations, want 0", tc.body, n)
		}
	}
	if decide.Type != 3 || decide.Deadline != 412.75 || decide.Value != 0 || decide.Now == nil || *decide.Now != 380.5 {
		t.Errorf("decide decoded as %+v (now %v)", decide.TaskSpec, decide.Now)
	}
	if complete.TaskID != 1047 || complete.Now == nil || *complete.Now != 395.125 {
		t.Errorf("complete decoded as task %d (now %v)", complete.TaskID, complete.Now)
	}
}
