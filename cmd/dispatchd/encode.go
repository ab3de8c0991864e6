package main

import (
	"encoding/json"
	"net/http"
)

// writeError emits the uniform JSON error envelope, {"error":"..."}.
// Backpressure-class statuses always carry a Retry-After so clients can
// pace themselves; handlers that computed a sharper hint set the header
// before calling and the default does not overwrite it.
func writeError(w http.ResponseWriter, code int, err error) {
	switch code {
	case http.StatusRequestEntityTooLarge, http.StatusTooManyRequests, http.StatusServiceUnavailable:
		if w.Header().Get("Retry-After") == "" {
			w.Header().Set("Retry-After", "1")
		}
	}
	writeJSON(w, code, struct {
		Error string `json:"error"`
	}{err.Error()})
}

// appendJSON appends the JSON encoding of v to b, for payloads framed
// by hand like the SSE connect snapshot.
func appendJSON(b []byte, v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		// Snapshot payloads are plain structs; an encode failure is a
		// programming error surfaced by tests, not worth a 500 here.
		return append(b, '{', '}')
	}
	return append(b, data...)
}
