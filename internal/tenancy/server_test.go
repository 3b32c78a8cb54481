package tenancy

import (
	"bufio"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestNewServerTimeouts checks the shared listener configuration: both
// connection timeouts are set, and a client that stalls mid-header is
// disconnected once ReadHeaderTimeout passes while a complete request on
// the same server is still answered.
func TestNewServerTimeouts(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, "ok") })
	srv := NewServer(h)
	if srv.ReadHeaderTimeout != ReadHeaderTimeout || srv.IdleTimeout != IdleTimeout || ReadHeaderTimeout <= 0 || IdleTimeout <= 0 {
		t.Fatalf("NewServer timeouts: header %v idle %v", srv.ReadHeaderTimeout, srv.IdleTimeout)
	}

	const timeout = 200 * time.Millisecond
	srv.ReadHeaderTimeout = timeout
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve: %v", err)
		}
	}()

	stalled, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	start := time.Now()
	if _, err := io.WriteString(stalled, "GET /v1/demo/stats HTTP/1.1\r\nHost: node\r\nX-Partial: "); err != nil {
		t.Fatal(err)
	}

	// A well-formed request is served while the stalled one waits.
	resp, err := http.Get("http://" + ln.Addr().String() + "/")
	if err != nil {
		t.Fatalf("complete request: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "ok" {
		t.Fatalf("complete request: %d %q", resp.StatusCode, body)
	}

	stalled.SetReadDeadline(time.Now().Add(10 * time.Second))
	rest, err := io.ReadAll(bufio.NewReader(stalled))
	if err != nil {
		t.Fatalf("stalled client was not disconnected: %v", err)
	}
	if elapsed := time.Since(start); elapsed < timeout {
		t.Fatalf("stalled client disconnected after %v, before the %v header timeout", elapsed, timeout)
	}
	if strings.Contains(string(rest), "200 OK") {
		t.Fatalf("stalled request was answered: %q", rest)
	}
}
