package cluster

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"
	"time"
)

// deadlineRequest builds a request carrying a budget in the deadline
// header, the ?deadline_ms= query parameter, both, or neither.
func deadlineRequest(header, query string) *http.Request {
	r := httptest.NewRequest(http.MethodGet, "/fib", nil)
	if query != "" {
		r.URL.RawQuery = url.Values{"deadline_ms": {query}}.Encode()
	}
	if header != "" {
		r.Header.Set(DeadlineHeader, header)
	}
	return r
}

// TestRequestDeadlineParsing pins the budget extraction: header wins
// over the query parameter, both are milliseconds-from-now, garbage or
// non-positive values mean no deadline, and a budget too large for a
// time.Duration clamps instead of wrapping into the past.
func TestRequestDeadlineParsing(t *testing.T) {
	if !RequestDeadline(deadlineRequest("", "")).IsZero() {
		t.Fatal("no budget anywhere, want zero deadline")
	}
	for _, bad := range []string{"x", "0", "-5"} {
		if !RequestDeadline(deadlineRequest(bad, "")).IsZero() {
			t.Fatalf("header %q, want zero deadline", bad)
		}
	}
	before := time.Now()
	dl := RequestDeadline(deadlineRequest("", "200"))
	if got := dl.Sub(before); got <= 0 || got > 250*time.Millisecond {
		t.Fatalf("query budget lands %v out, want ~200ms", got)
	}
	// Header wins: 50ms header against a 10s query parameter.
	dl = RequestDeadline(deadlineRequest("50", "10000"))
	if got := dl.Sub(before); got > time.Second {
		t.Fatalf("header did not win over query: deadline %v out", got)
	}
	// One past MaxInt64/1e6 milliseconds used to wrap the Duration
	// multiply to a deadline ~292 years in the past.
	for _, r := range []*http.Request{deadlineRequest("9223372036855", ""), deadlineRequest("", "9223372036855")} {
		if dl := RequestDeadline(r); !dl.After(before.Add(100 * 365 * 24 * time.Hour)) {
			t.Fatalf("overflowing budget gives deadline %v, want centuries ahead", dl)
		}
	}
}

// FuzzRequestDeadline: whatever the header or query value, a parsed
// budget is never in the past, and non-numeric or non-positive input
// gives the zero time. The seed corpus runs under a plain go test.
func FuzzRequestDeadline(f *testing.F) {
	for _, seed := range []string{"", "x", "0", "-5", "200", "+7", "9223372036855",
		"9223372036854775807", "99999999999999999999", " 5"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, v string) {
		ms, err := strconv.ParseInt(v, 10, 64)
		valid := err == nil && ms > 0
		for _, r := range []*http.Request{deadlineRequest(v, ""), deadlineRequest("", v)} {
			before := time.Now()
			dl := RequestDeadline(r)
			switch {
			case !valid && !dl.IsZero():
				t.Fatalf("value %q gives deadline %v, want zero", v, dl)
			case valid && !dl.After(before):
				t.Fatalf("value %q gives deadline %v, not after %v", v, dl, before)
			}
		}
	})
}
