package main

import (
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"
)

// TestSlowHeaderClientDisconnected sends a request line and one header,
// then stalls: the server must drop the connection once
// readHeaderTimeout has passed instead of holding it open.
func TestSlowHeaderClientDisconnected(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(ln.Addr().String(), http.NotFoundHandler())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		if err := <-done; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve: %v", err)
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "POST /v1/design HTTP/1.1\r\nHost: localhost\r\n"); err != nil {
		t.Fatal(err)
	}
	const slack = 2 * time.Second
	if err := conn.SetReadDeadline(start.Add(readHeaderTimeout + slack)); err != nil {
		t.Fatal(err)
	}
	n, err := conn.Read(make([]byte, 1))
	elapsed := time.Since(start)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("connection still open %v after a partial header (ReadHeaderTimeout %v)", elapsed, readHeaderTimeout)
	}
	if n != 0 || !errors.Is(err, io.EOF) {
		t.Fatalf("read %d bytes, err %v; want the server to close the connection", n, err)
	}
	if elapsed < readHeaderTimeout/2 {
		t.Fatalf("connection closed after %v, well before ReadHeaderTimeout %v", elapsed, readHeaderTimeout)
	}
}

// readTimeoutShort stands in for readTimeout in tests that must outlast it.
const readTimeoutShort = 300 * time.Millisecond

// TestLongHandlerOutlivesReadTimeout runs a handler past the server's
// ReadTimeout, the way a long solve or an NDJSON stream does, and checks
// that its request context is still live: ReadTimeout must bound reading
// the request, not the handler. The handler consumes the body the way
// internal/serve does (a JSON decode through MaxBytesReader); net/http
// then clears the connection's read deadline before its background read,
// so the deadline cannot fire mid-handler. Covers a Content-Length body
// and a chunked one. ReadTimeout is shortened so the test runs quickly.
func TestLongHandlerOutlivesReadTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctxErr := make(chan error, 1)
	srv := newServer(ln.Addr().String(), http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var p map[string]any
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&p); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		select {
		case <-r.Context().Done():
		case <-time.After(3 * readTimeoutShort):
		}
		ctxErr <- r.Context().Err()
		io.WriteString(w, "ok\n")
	}))
	srv.ReadTimeout = readTimeoutShort
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		if err := <-done; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve: %v", err)
		}
	}()

	url := "http://" + ln.Addr().String() + "/v1/design"
	const profile = `{"body_scale": 1.1, "pdr_min": 0.95}`
	for _, tc := range []struct {
		name string
		body io.Reader
	}{
		{"content-length", strings.NewReader(profile)},
		{"chunked", io.MultiReader(strings.NewReader(profile))},
	} {
		resp, err := http.Post(url, "application/json", tc.body)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err := <-ctxErr; err != nil {
			t.Fatalf("%s: request context ended mid-handler: %v (ReadTimeout %v)", tc.name, err, readTimeoutShort)
		}
		if resp.StatusCode != http.StatusOK || string(b) != "ok\n" {
			t.Fatalf("%s: status %d body %q", tc.name, resp.StatusCode, b)
		}
	}
}
