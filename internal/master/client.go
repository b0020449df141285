package master

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"time"
)

// ClientOptions tunes a control-plane client.
type ClientOptions struct {
	// DialTimeout bounds connection establishment (default 5s).
	DialTimeout time.Duration
	// IOTimeout bounds each call, dial included (default 10s).
	IOTimeout time.Duration
	// Dial replaces net.DialTimeout, for fault-injection tests that wrap
	// the client side of the connection.
	Dial func(network, addr string, timeout time.Duration) (net.Conn, error)
}

func (o *ClientOptions) withDefaults() ClientOptions {
	var out ClientOptions
	if o != nil {
		out = *o
	}
	if out.DialTimeout <= 0 {
		out.DialTimeout = 5 * time.Second
	}
	if out.IOTimeout <= 0 {
		out.IOTimeout = 10 * time.Second
	}
	if out.Dial == nil {
		out.Dial = net.DialTimeout
	}
	return out
}

// Client speaks the control protocol to one master over keep-alive HTTP
// connections, redialing after any failure. It is safe for concurrent use.
type Client struct {
	url string
	hc  *http.Client
}

// NewClient returns a client for the master at addr. No connection is made
// until the first call.
func NewClient(addr string, opts *ClientOptions) *Client {
	o := opts.withDefaults()
	dial := func(_ context.Context, network, addr string) (net.Conn, error) {
		return o.Dial(network, addr, o.DialTimeout)
	}
	return &Client{
		url: "http://" + addr,
		hc:  &http.Client{Transport: &http.Transport{DialContext: dial}, Timeout: o.IOTimeout},
	}
}

// Close releases the idle connections.
func (c *Client) Close() {
	c.hc.CloseIdleConnections()
}

// call posts body to route and decodes the reply into out once its
// checksum holds.
func (c *Client) call(route string, body, out any) error {
	raw, sum, err := encode(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, c.url+route, bytes.NewReader(raw))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(crcHeader, sum)
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err = readBody(resp.Body, resp.Header)
	if resp.StatusCode != http.StatusOK {
		var eb errorBody
		if err == nil && json.Unmarshal(raw, &eb) == nil && eb.Error != "" {
			return fmt.Errorf("%w: %s", ErrRemote, eb.Error)
		}
		return fmt.Errorf("master %s: %s", route, resp.Status)
	}
	if err == nil {
		err = json.Unmarshal(raw, out)
	}
	if err != nil {
		return fmt.Errorf("master %s reply: %w", route, err)
	}
	return nil
}

// Beat registers a blockserver or reports its liveness, capacity and
// health — one transition at the master, so one call.
func (c *Client) Beat(info NodeInfo) (RegisterAck, error) {
	var ack RegisterAck
	err := c.call("/beat", info, &ack)
	return ack, err
}

// Leave announces a member's departure — a daemon's clean shutdown or an
// operator's drain: the master skips the suspect window and moves the
// member's blocks immediately.
func (c *Client) Leave(addr string) (DrainReply, error) {
	var rep DrainReply
	err := c.call("/leave", DrainRequest{Addr: addr}, &rep)
	return rep, err
}

// Place assigns (or looks up) a file placement.
func (c *Client) Place(req PlaceRequest) (PlaceReply, error) {
	var rep PlaceReply
	err := c.call("/place", req, &rep)
	return rep, err
}

// Status fetches the cluster view.
func (c *Client) Status() (*ClusterStatus, error) {
	var cs ClusterStatus
	if err := c.call("/status", struct{}{}, &cs); err != nil {
		return nil, err
	}
	return &cs, nil
}
