package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// stallMidHeader opens a raw connection to addr, sends half a request header
// and stops. The daemon must hang up on it — after ReadHeaderTimeout, not
// before, and not never.
func stallMidHeader(t *testing.T, addr string) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	fmt.Fprintf(conn, "POST /v1/solve HTTP/1.1\r\nHost: %s\r\nContent-Ty", addr)
	conn.SetReadDeadline(start.Add(ReadHeaderTimeout + 5*time.Second))
	_, err = io.Copy(io.Discard, conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("a client stalled mid-header is still connected after %v", time.Since(start).Round(time.Second))
	}
	if held := time.Since(start); held < ReadHeaderTimeout/2 {
		t.Fatalf("hung up after %v, before the header timeout %v", held, ReadHeaderTimeout)
	}
}

// TestSlowHeaderClientDisconnected: a client that stops halfway through its
// request headers is disconnected, and the same daemon then serves a solve.
func TestSlowHeaderClientDisconnected(t *testing.T) {
	t.Parallel()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, QueueDepth: 4})
	go s.Serve(l)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	stallMidHeader(t, l.Addr().String())
	resp := postJSON(t, "http://"+l.Addr().String()+"/v1/solve", SolveRequest{ProblemSpec: ProblemSpec{Problem: "poisson7", N: 6}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve after the stalled client: status %d", resp.StatusCode)
	}
	if st := decodeStatus(t, resp); !st.Converged {
		t.Fatalf("solve after the stalled client: state=%s error=%q", st.State, st.Error)
	}
}
