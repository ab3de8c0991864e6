package main

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestWriteCreatedRequestBody pins the POST /v1/requests 201 on the
// wire: its Content-Type and its body, byte for byte.
func TestWriteCreatedRequestBody(t *testing.T) {
	_, srv := startServer(t, testConfig())
	if _, err := srv.tick(17); err != nil {
		t.Fatal(err)
	}
	var rec *httptest.ResponseRecorder
	for i := 0; i < 2; i++ {
		rec = httptest.NewRecorder()
		srv.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/requests",
			strings.NewReader(`{"pickup":{"x":10,"y":10},"dropoff":{"x":14,"y":12}}`)))
	}
	if rec.Code != http.StatusCreated {
		t.Fatalf("status = %d, want 201", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	if got, want := rec.Body.String(), `{"id":1,"frame":17}`+"\n"; got != want {
		t.Fatalf("body = %q, want %q", got, want)
	}
}

// TestWriteErrorBody pins the error envelope byte for byte, escapes
// included: HTML-sensitive characters, control characters, invalid
// UTF-8 and the JavaScript line separators.
func TestWriteErrorBody(t *testing.T) {
	cases := []struct {
		code int
		err  error
		want string
	}{
		{http.StatusBadRequest, errors.New("decode request: bad json"),
			`{"error":"decode request: bad json"}`},
		{http.StatusTooManyRequests, errors.New(`queue full <retry "soon" & back off>`),
			`{"error":"queue full \u003cretry \"soon\" \u0026 back off\u003e"}`},
		{http.StatusServiceUnavailable, errors.New("draining\nnow\t\x01"),
			`{"error":"draining\nnow\t\u0001"}`},
		{http.StatusInternalServerError, errors.New("bad \xff utf8, 出租车 \u2028 sep"),
			`{"error":"bad \ufffd utf8, 出租车 \u2028 sep"}`},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		writeError(rec, tc.code, tc.err)
		if rec.Code != tc.code {
			t.Fatalf("status = %d, want %d", rec.Code, tc.code)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("Content-Type = %q", ct)
		}
		if got := rec.Body.String(); got != tc.want+"\n" {
			t.Fatalf("body = %q, want %q", got, tc.want+"\n")
		}
		switch tc.code {
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			if rec.Header().Get("Retry-After") == "" {
				t.Fatalf("code %d missing Retry-After", tc.code)
			}
		}
	}
}

func TestWriteErrorKeepsSharperRetryAfter(t *testing.T) {
	rec := httptest.NewRecorder()
	rec.Header().Set("Retry-After", "7")
	writeError(rec, http.StatusTooManyRequests, errors.New("shed"))
	if got := rec.Header().Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After = %q, want the handler's sharper 7", got)
	}
}
