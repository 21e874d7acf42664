package docstore

import (
	"crypto/rand"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Client is a pooled TCP client for a docstore Server. A pool of up to
// poolSize persistent connections lets many goroutines (e.g. DataLoader
// workers) issue requests concurrently — the paper's "fetch using multiple
// clients" extension of the PyTorch DataLoader (§III-D). poolSize is a hard
// cap: when all connections are in flight, further requests block on a
// semaphore until one frees up (or the acquire timeout expires), so the
// client never opens more than poolSize simultaneous connections no matter
// how many goroutines hammer it. Client is safe for concurrent use.
type Client struct {
	addr    string
	timeout time.Duration
	seq     atomic.Uint64

	// slots is the concurrency semaphore: one token per permitted
	// connection. acquire takes a token before using (or dialing) a
	// connection; release/discard return it.
	slots chan struct{}

	mu     sync.Mutex
	idle   []*clientConn
	closed bool

	// instrument, when set, observes every round trip (op name, wall time
	// including pool wait and retry, outcome). See Instrument.
	instrument atomic.Pointer[func(op string, d time.Duration, err error)]
}

type clientConn struct {
	conn net.Conn
	enc  *gob.Encoder
	dec  *gob.Decoder
}

// Dial connects a client pool of up to poolSize persistent connections to
// the server at addr. Connections are created lazily.
func Dial(addr string, poolSize int) (*Client, error) {
	if poolSize < 1 {
		poolSize = 1
	}
	c := &Client{addr: addr, timeout: 10 * time.Second, slots: make(chan struct{}, poolSize)}
	for i := 0; i < poolSize; i++ {
		c.slots <- struct{}{}
	}
	// Probe connectivity eagerly so misconfiguration fails fast.
	if err := c.Ping(); err != nil {
		return nil, fmt.Errorf("docstore: dial %s: %w", addr, err)
	}
	return c, nil
}

// acquire blocks until a pool slot is free, then returns an idle
// connection or dials a new one. The caller owns both the slot and the
// connection until it calls release or discard.
func (c *Client) acquire() (*clientConn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errors.New("docstore: client closed")
	}
	c.mu.Unlock()

	timer := time.NewTimer(c.timeout)
	defer timer.Stop()
	select {
	case <-c.slots:
	case <-timer.C:
		return nil, fmt.Errorf("docstore: pool exhausted for %v", c.timeout)
	}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.slots <- struct{}{}
		return nil, errors.New("docstore: client closed")
	}
	if n := len(c.idle); n > 0 {
		cc := c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		return cc, nil
	}
	c.mu.Unlock()

	conn, err := net.DialTimeout("tcp", c.addr, c.timeout)
	if err != nil {
		c.slots <- struct{}{}
		return nil, err
	}
	return &clientConn{conn: conn, enc: gob.NewEncoder(conn), dec: gob.NewDecoder(conn)}, nil
}

// release returns a healthy connection to the idle list (or closes it if
// the client shut down) and frees the caller's pool slot.
func (c *Client) release(cc *clientConn) {
	c.mu.Lock()
	if !c.closed {
		c.idle = append(c.idle, cc)
		c.mu.Unlock()
		c.slots <- struct{}{}
		return
	}
	c.mu.Unlock()
	cc.conn.Close()
	c.slots <- struct{}{}
}

// discard closes a broken connection and frees the caller's pool slot.
func (c *Client) discard(cc *clientConn) {
	cc.conn.Close()
	c.slots <- struct{}{}
}

// Instrument installs a hook observing every round trip: the wire op's
// lowercase_snake name ("get_many", "txn", ...), its wall time —
// pool wait and the single broken-connection retry included, so the hook
// sees what the caller experienced — and the outcome. The daemon uses it
// to surface store RPC counters and latency on /metricsz. Pass nil to
// uninstall. Safe to call concurrently with in-flight requests; keep the
// hook cheap, it runs on the request path.
func (c *Client) Instrument(fn func(op string, d time.Duration, err error)) {
	var p *func(op string, d time.Duration, err error)
	if fn != nil {
		p = &fn
	}
	c.instrument.Store(p)
}

// roundTrip sends one request and reads one response, retrying once on a
// broken pooled connection (the peer may have dropped it between uses).
// Responses are matched to requests by sequence number; a mismatch means
// the connection carries a stale or reordered stream and is discarded.
func (c *Client) roundTrip(req *request) (*response, error) {
	if fn := c.instrument.Load(); fn != nil {
		begin := time.Now()
		resp, err := c.roundTripUninstrumented(req)
		(*fn)(req.Op.opName(), time.Since(begin), err)
		return resp, err
	}
	return c.roundTripUninstrumented(req)
}

func (c *Client) roundTripUninstrumented(req *request) (*response, error) {
	req.Seq = c.seq.Add(1)
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		cc, err := c.acquire()
		if err != nil {
			return nil, err
		}
		if err := cc.enc.Encode(req); err != nil {
			c.discard(cc)
			lastErr = err
			continue
		}
		var resp response
		if err := cc.dec.Decode(&resp); err != nil {
			c.discard(cc)
			lastErr = err
			continue
		}
		if resp.Seq != req.Seq {
			c.discard(cc)
			lastErr = fmt.Errorf("docstore: response seq %d for request %d", resp.Seq, req.Seq)
			continue
		}
		c.release(cc)
		if resp.Err != "" {
			return nil, &remoteError{msg: resp.Err, conflict: resp.Conflict}
		}
		return &resp, nil
	}
	return nil, fmt.Errorf("docstore: request failed after retry: %w", lastErr)
}

// remoteError is a failure the server reported, as the client returns
// it: the server's message, matching ErrConflict under errors.Is when the
// server's error did.
type remoteError struct {
	msg      string
	conflict bool
}

func (e *remoteError) Error() string { return e.msg }

func (e *remoteError) Is(target error) bool { return e.conflict && target == ErrConflict }

// Ping verifies connectivity.
func (c *Client) Ping() error {
	_, err := c.roundTrip(&request{Op: opPing})
	return err
}

// ApplyTxn commits ops against the named collection as one
// all-or-nothing transaction (one WAL commit record on a durable
// server), returning each op's target document ID in order. It is the
// client's only write. The client retries once on a broken pooled
// connection, so a transaction whose reply was lost is sent again. Its
// adds land once all the same: each Add without an ID gets a random
// 128-bit one before the first attempt, and the server takes an Add that
// names a document with the same fields as done. A re-sent Update merges
// the same fields again, so the document ends the same, though a durable
// server logs the commit twice. A re-sent Delete whose first attempt
// landed fails, naming the ID: a Delete cannot tell its own landed
// attempt from a wrong ID.
func (c *Client) ApplyTxn(collection string, ops []TxnOp) ([]string, error) {
	named := make([]TxnOp, len(ops))
	for i, op := range ops {
		if op.Kind == TxnAdd && op.ID == "" {
			op.ID = rand.Text()
		}
		named[i] = op
	}
	resp, err := c.roundTrip(&request{Op: opTxn, Collection: collection, Ops: named})
	if err != nil {
		return nil, err
	}
	return resp.IDs, nil
}

// Get fetches one document by ID.
func (c *Client) Get(collection, id string) (*Doc, error) {
	resp, err := c.roundTrip(&request{Op: opGet, Collection: collection, ID: id})
	if err != nil {
		return nil, err
	}
	if len(resp.Docs) != 1 {
		return nil, fmt.Errorf("docstore: get returned %d docs", len(resp.Docs))
	}
	d := resp.Docs[0]
	return &d, nil
}

// GetMany fetches documents by ID, in order.
func (c *Client) GetMany(collection string, ids []string) ([]*Doc, error) {
	resp, err := c.roundTrip(&request{Op: opGetMany, Collection: collection, IDs: ids})
	if err != nil {
		return nil, err
	}
	out := make([]*Doc, len(resp.Docs))
	for i := range resp.Docs {
		d := resp.Docs[i]
		out[i] = &d
	}
	return out, nil
}

// Find returns documents matching the query.
func (c *Client) Find(collection string, q Query) ([]*Doc, error) {
	resp, err := c.roundTrip(&request{Op: opFind, Collection: collection, Query: q})
	if err != nil {
		return nil, err
	}
	out := make([]*Doc, len(resp.Docs))
	for i := range resp.Docs {
		d := resp.Docs[i]
		out[i] = &d
	}
	return out, nil
}

// FindIDs returns the IDs of documents matching the query.
func (c *Client) FindIDs(collection string, q Query) ([]string, error) {
	resp, err := c.roundTrip(&request{Op: opFindIDs, Collection: collection, Query: q})
	if err != nil {
		return nil, err
	}
	return resp.IDs, nil
}

// Count returns how many documents match the query.
func (c *Client) Count(collection string, q Query) (int, error) {
	resp, err := c.roundTrip(&request{Op: opCount, Collection: collection, Query: q})
	if err != nil {
		return 0, err
	}
	return resp.Count, nil
}

// SampleIDs draws up to n matching document IDs — the remote
// Collection.SampleIDs: the matches of lowest DrawRank under seed, sorted.
func (c *Client) SampleIDs(collection string, q Query, n int, seed int64) ([]string, error) {
	resp, err := c.roundTrip(&request{Op: opSample, Collection: collection, Query: q, N: n, Seed: seed})
	if err != nil {
		return nil, err
	}
	return resp.IDs, nil
}

// CreateHashIndex builds an equality index on the server.
func (c *Client) CreateHashIndex(collection, field string) error {
	_, err := c.roundTrip(&request{Op: opCreateHashIndex, Collection: collection, Field: field})
	return err
}

// Close shuts the pool down. In-flight requests finish; their connections
// are closed on release.
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	for _, cc := range c.idle {
		cc.conn.Close()
	}
	c.idle = nil
}
