package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"strings"
)

// HeaderRequestID is the correlation-ID header: accepted from the client,
// generated when absent, and echoed on every response. The same ID is
// threaded into the access log line, the sweep's progress events, and
// the harness trace spans — one string links everything one request
// produced. It is never part of a store key.
const HeaderRequestID = "X-Request-Id"

// maxRequestIDLen caps accepted IDs; longer client values are truncated.
const maxRequestIDLen = 64

type requestIDKey struct{}

// withRequestID stores the request's correlation ID in its context.
func withRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

// RequestIDFrom returns the correlation ID threaded through ctx ("" when
// the context did not pass through the server middleware).
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// ensureRequestID resolves the request's correlation ID: the client's
// X-Request-Id if it survives sanitization, a generated one otherwise.
func ensureRequestID(r *http.Request) string {
	if id := sanitizeRequestID(r.Header.Get(HeaderRequestID)); id != "" {
		return id
	}
	return newRequestID()
}

// sanitizeRequestID filters a client-supplied ID down to [A-Za-z0-9._-]
// and at most maxRequestIDLen bytes. The ID lands in log lines, stream
// events, and trace args, so anything outside that conservative set is
// dropped rather than escaped.
func sanitizeRequestID(s string) string {
	var b strings.Builder
	for i := 0; i < len(s) && b.Len() < maxRequestIDLen; i++ {
		c := s[i]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
			c == '.' || c == '_' || c == '-' {
			b.WriteByte(c)
		}
	}
	return b.String()
}

// newRequestID generates a 16-hex-char random correlation ID.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; a fixed fallback keeps
		// requests flowing and is obvious in logs.
		return "rand-unavailable"
	}
	return hex.EncodeToString(b[:])
}
