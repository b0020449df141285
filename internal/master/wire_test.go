package master

import (
	"bytes"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"carousel/internal/frame"
)

// post sends body to the master's route with the given checksum header
// and returns the response status.
func post(t *testing.T, addr, route string, body []byte, sum string) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, "http://"+addr+route, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(crcHeader, sum)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestControlWire pins the control protocol's safety properties: every
// body is checksummed and bounded in both directions before a byte of it
// is decoded, refusals keep the connection, and one Client serves
// concurrent callers.
func TestControlWire(t *testing.T) {
	m, err := New(fastMasterConfig(testCode(t)))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	t.Run("corrupt request refused", func(t *testing.T) {
		body, sum, err := encode(NodeInfo{Addr: "flip:1"})
		if err != nil {
			t.Fatal(err)
		}
		body[len(body)/2] ^= 0x01
		if code := post(t, m.Addr(), "/beat", body, sum); code != http.StatusBadRequest {
			t.Fatalf("flipped request answered %d, want 400", code)
		}
		for _, mem := range m.Status().Members {
			if strings.HasPrefix(mem.Addr, "flip") {
				t.Fatalf("a corrupt beat registered %q", mem.Addr)
			}
		}
	})

	t.Run("oversize body refused", func(t *testing.T) {
		body := bytes.Repeat([]byte(" "), maxFrame+1)
		sum := strconv.FormatUint(uint64(frame.Checksum(body)), 16)
		if code := post(t, m.Addr(), "/status", body, sum); code != http.StatusBadRequest {
			t.Fatalf("%d-byte request answered %d, want 400", len(body), code)
		}
	})

	t.Run("corrupt reply not decoded", func(t *testing.T) {
		liar := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			body, sum, _ := encode(RegisterAck{IntervalMS: 5, Epoch: 7})
			w.Header().Set(crcHeader, sum)
			body[len(body)/2] ^= 0x01
			w.Write(body)
		}))
		defer liar.Close()
		c := NewClient(strings.TrimPrefix(liar.URL, "http://"), nil)
		defer c.Close()
		ack, err := c.Beat(NodeInfo{Addr: "n:1"})
		if !errors.Is(err, errFrame) {
			t.Fatalf("corrupt reply: err = %v, want errFrame", err)
		}
		if ack != (RegisterAck{}) {
			t.Fatalf("corrupt reply decoded into %+v", ack)
		}
	})

	t.Run("unknown path is an error", func(t *testing.T) {
		c := NewClient(m.Addr(), &ClientOptions{IOTimeout: 2 * time.Second})
		defer c.Close()
		var out struct{}
		err := c.call("/nope", struct{}{}, &out)
		if err == nil || !strings.Contains(err.Error(), "404") {
			t.Fatalf("unknown path: err = %v, want a 404 error", err)
		}
	})

	t.Run("in-band error keeps the connection", func(t *testing.T) {
		var dials atomic.Int32
		c := NewClient(m.Addr(), &ClientOptions{Dial: func(network, addr string, timeout time.Duration) (net.Conn, error) {
			dials.Add(1)
			return net.DialTimeout(network, addr, timeout)
		}})
		defer c.Close()
		if _, err := c.Place(PlaceRequest{Name: "missing"}); !errors.Is(err, ErrRemote) {
			t.Fatalf("lookup of a missing file: err = %v, want ErrRemote", err)
		}
		if _, err := c.Status(); err != nil {
			t.Fatal(err)
		}
		if n := dials.Load(); n != 1 {
			t.Fatalf("%d dials across a refusal, want 1", n)
		}
	})

	t.Run("one client, concurrent callers", func(t *testing.T) {
		hb := NewHeartbeater(HeartbeatConfig{Master: m.Addr(), Addr: "busy:1", Interval: time.Millisecond, Retry: fastRetry()})
		hb.Start()
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 25; i++ {
					if _, err := hb.client.Status(); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		hb.Stop()
		if ok, failed := hb.Beats(); ok == 0 || failed != 0 {
			t.Fatalf("beats ok=%d failed=%d beside concurrent Status calls", ok, failed)
		}
		if mem := m.Status().Member("busy:1"); mem == nil || mem.State != "left" {
			t.Fatalf("stopped heartbeater's member: %+v, want left", mem)
		}
	})
}
