package docstore

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// connWorkers bounds how many requests from one connection are handled
// concurrently. Client keeps one request in flight per connection, so
// only a peer that pipelines requests reaches this bound.
const connWorkers = 8

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
// its own goroutine, so parallel clients — each Client connection carries
// one request at a time — read and write concurrently; the store's shard
// locks are the only serialization point. A connection's requests run on
// a bounded worker pool, so a peer that pipelines them on one connection
// is served concurrently too.
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

// serveConn decodes requests off the connection and hands each to the
// per-connection worker pool. The decode loop never waits on request
// handling (only on pool admission): a Client's connection carries one
// request at a time, but a peer that pipelines gets up to connWorkers of
// them run concurrently. Responses carry the request's Seq and are
// serialized onto the connection by a write mutex in completion order.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	var handlers sync.WaitGroup
	defer func() {
		handlers.Wait()
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)
	var wmu sync.Mutex
	pool := make(chan struct{}, connWorkers)
	for {
		var req request
		if err := dec.Decode(&req); err != nil {
			if !errors.Is(err, io.EOF) && !s.closed.Load() && s.cfg.Logger != nil {
				s.cfg.Logger.Printf("docstore server: decode: %v", err)
			}
			return
		}
		pool <- struct{}{}
		handlers.Add(1)
		go func(req request) {
			defer func() {
				<-pool
				handlers.Done()
			}()
			if s.cfg.Latency > 0 {
				time.Sleep(s.cfg.Latency)
			}
			resp := s.handle(&req)
			resp.Seq = req.Seq
			s.served.Add(1)
			wmu.Lock()
			err := enc.Encode(resp)
			wmu.Unlock()
			if err != nil {
				if s.cfg.Logger != nil {
					s.cfg.Logger.Printf("docstore server: encode: %v", err)
				}
				conn.Close() // unblocks the decode loop
				return
			}
			if s.cfg.FaultRate > 0 {
				s.faultMu.Lock()
				drop := s.faultRN.Float64() < s.cfg.FaultRate
				s.faultMu.Unlock()
				if drop {
					conn.Close() // abruptly drop the connection
				}
			}
		}(req)
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

	c := s.store.Collection(req.Collection)
	switch req.Op {
	case opInsert:
		id, err := c.Insert(req.ID, req.Fields)
		if err != nil {
			return fail(err)
		}
		resp.ID = id
	case opInsertMany:
		if len(req.IDs) > 0 && len(req.IDs) != len(req.Batch) {
			return fail(fmt.Errorf("docstore: insert many: %d ids for %d documents", len(req.IDs), len(req.Batch)))
		}
		ops := make([]TxnOp, len(req.Batch))
		for i, f := range req.Batch {
			ops[i] = TxnOp{Kind: TxnAdd, F: f}
			if len(req.IDs) > 0 {
				ops[i].ID = req.IDs[i]
			}
		}
		ids, err := c.ApplyTxn(ops)
		if err != nil {
			return fail(err)
		}
		resp.IDs = ids
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
	case opUpdate:
		if err := c.Update(req.ID, req.Fields); err != nil {
			return fail(err)
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
	default:
		resp.Err = "docstore: unknown operation"
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
