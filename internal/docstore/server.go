package docstore

import (
	"encoding/gob"
	"errors"
	"io"
	"log"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ServerConfig tunes a document-store server.
type ServerConfig struct {
	// Latency is an artificial per-request delay, used to emulate the
	// paper's remote (100 GbE) MongoDB placement in benchmarks. Zero means
	// no added delay.
	Latency time.Duration
	// FaultRate, if positive, is the probability that the server abruptly
	// drops a connection after serving a request — failure injection for
	// client-resilience tests.
	FaultRate float64
	// FaultSeed seeds the fault generator.
	FaultSeed int64
	// Logger receives error logs; nil silences them.
	Logger *log.Logger
}

// Server exposes a Store over TCP. Each accepted connection is served by
// its own goroutine, one request at a time, so parallel clients — each
// Client connection carries one request at a time — read and write
// concurrently; the store's shard locks are the only serialization point.
type Server struct {
	store *Store
	cfg   ServerConfig
	lis   net.Listener

	mu        sync.Mutex
	conns     map[net.Conn]struct{}
	peakConns int
	closed    atomic.Bool
	wg        sync.WaitGroup
	served    atomic.Int64
	faultMu   sync.Mutex
	faultRN   *rand.Rand
}

// NewServer wraps store with a protocol server; call Serve to start.
func NewServer(store *Store, cfg ServerConfig) *Server {
	return &Server{
		store:   store,
		cfg:     cfg,
		conns:   make(map[net.Conn]struct{}),
		faultRN: rand.New(rand.NewSource(cfg.FaultSeed)),
	}
}

// Listen binds to addr ("127.0.0.1:0" picks a free port) and starts
// serving in background goroutines. It returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.lis = lis
	s.wg.Add(1)
	go s.acceptLoop()
	return lis.Addr().String(), nil
}

// Requests reports how many requests have been served.
func (s *Server) Requests() int64 { return s.served.Load() }

// PeakConns reports the highest number of simultaneously live client
// connections seen since the server started — the observable a client
// pool-size cap is asserted against.
func (s *Server) PeakConns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peakConns
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed.Load() {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		if n := len(s.conns); n > s.peakConns {
			s.peakConns = n
		}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// serveConn serves the connection's requests one at a time, in order:
// decode, handle, encode the response with the request's Seq, then (under
// fault injection) maybe drop the connection. Client keeps one request in
// flight per connection and takes its concurrency from its connection
// pool, so concurrent clients are served by concurrent connections.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)
	for {
		var req request
		if err := dec.Decode(&req); err != nil {
			if !errors.Is(err, io.EOF) && !s.closed.Load() && s.cfg.Logger != nil {
				s.cfg.Logger.Printf("docstore server: decode: %v", err)
			}
			return
		}
		if s.cfg.Latency > 0 {
			time.Sleep(s.cfg.Latency)
		}
		resp := s.handle(&req)
		resp.Seq = req.Seq
		s.served.Add(1)
		if err := enc.Encode(resp); err != nil {
			if s.cfg.Logger != nil {
				s.cfg.Logger.Printf("docstore server: encode: %v", err)
			}
			return
		}
		if s.cfg.FaultRate > 0 {
			s.faultMu.Lock()
			drop := s.faultRN.Float64() < s.cfg.FaultRate
			s.faultMu.Unlock()
			if drop {
				return // abruptly drop the connection
			}
		}
	}
}

func (s *Server) handle(req *request) *response {
	resp := &response{}
	fail := func(err error) *response {
		resp.Err = err.Error()
		resp.Conflict = errors.Is(err, ErrConflict)
		return resp
	}
	if req.Op == opPing {
		return resp
	}
	// Checked before the lookup below, which would create the collection.
	if req.Op.opName() == "unknown" {
		resp.Err = "docstore: unknown operation"
		return resp
	}

	c := s.store.Collection(req.Collection)
	switch req.Op {
	case opTxn:
		ids, err := c.ApplyTxn(req.Ops)
		if err != nil {
			return fail(err)
		}
		resp.IDs = ids
	case opGet:
		d, err := c.Get(req.ID)
		if err != nil {
			return fail(err)
		}
		resp.Docs = []Doc{*d}
	case opGetMany:
		ds, err := c.GetMany(req.IDs)
		if err != nil {
			return fail(err)
		}
		for _, d := range ds {
			resp.Docs = append(resp.Docs, *d)
		}
	case opFind:
		ds, err := c.Find(req.Query)
		if err != nil {
			return fail(err)
		}
		for _, d := range ds {
			resp.Docs = append(resp.Docs, *d)
		}
	case opFindIDs:
		ids, err := c.FindIDs(req.Query)
		if err != nil {
			return fail(err)
		}
		resp.IDs = ids
	case opCount:
		n, err := c.CountWhere(req.Query)
		if err != nil {
			return fail(err)
		}
		resp.Count = n
	case opSample:
		ids, err := c.SampleIDs(req.Query, req.N, req.Seed)
		if err != nil {
			return fail(err)
		}
		resp.IDs = ids
	case opCreateHashIndex:
		if err := c.CreateHashIndex(req.Field); err != nil {
			return fail(err)
		}
	}
	return resp
}

// Close stops accepting, closes live connections, and waits for handler
// goroutines to finish.
func (s *Server) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	var err error
	if s.lis != nil {
		err = s.lis.Close()
	}
	s.mu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}
