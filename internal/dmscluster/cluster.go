package dmscluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fairdms/internal/dmsapi"
	"fairdms/internal/obs"
)

// Config wires a Cluster to its shard set and tunes its behavior.
type Config struct {
	// Shards lists the dmsd addresses ("host:port"), in ring order.
	// Required, at least one. Every shard must run with the same -seed
	// and a distinct -node-id (distinct document-ID namespaces).
	Shards []string
	// Vnodes is the virtual-node count per shard on the hash ring
	// (default 128).
	Vnodes int
	// BootstrapK, when positive, lets the cluster start against unfitted
	// shards: the first ingest fits every shard's clustering model on
	// that same full batch (coordinated bootstrap), so the replicated
	// models agree. Zero requires pre-fitted shards.
	BootstrapK int
	// Seed is the lookup draw's seed: it travels to every shard in the
	// draw round and the merge recomputes docstore.DrawRank under it
	// (plus the cluster number), so a routed lookup draws what one node
	// started with this -seed would draw from the same documents. It
	// should match the shards' -seed. Zero is a valid seed.
	Seed int64
	// ProbeInterval is the active health-probe cadence (default 1s;
	// negative disables active probing — serving-path failures still
	// eject).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one health probe (default 500ms).
	ProbeTimeout time.Duration
	// FailAfter is the consecutive-failure count that ejects a shard
	// (default 2). Probe failures and serving-path transport failures
	// both count; any success resets.
	FailAfter int
	// Retries/Backoff tune each per-shard HTTP exchange (defaults 1 and
	// 25ms — the cluster layer adds its own fail-open, so per-call
	// retries stay small to bound fan-out tail latency).
	Retries int
	Backoff time.Duration
	// Timeout bounds each per-shard HTTP exchange (default 30s).
	Timeout time.Duration
	// Logger receives membership transitions and reroutes as leveled
	// key=value events; nil silences.
	Logger *obs.Logger
}

func (c *Config) defaults() {
	if c.Vnodes <= 0 {
		c.Vnodes = defaultVnodes
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 500 * time.Millisecond
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 2
	}
	if c.Retries <= 0 {
		c.Retries = 1
	}
	if c.Backoff <= 0 {
		c.Backoff = 25 * time.Millisecond
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
}

// node is one shard's client plus health state.
type node struct {
	idx    int
	addr   string
	client *dmsapi.Client

	healthy   atomic.Bool
	fails     atomic.Int32 // consecutive failures
	ejections atomic.Int64
	mu        sync.Mutex // guards lastErr
	lastErr   string
}

// Cluster is the smart cluster client: the routing tier as an embeddable
// Go API. It consistent-hashes ingest across shards, scatters queries
// and merges results, and replicates model writes. Safe for concurrent
// use. Construct with New, call Start to begin active health probing,
// Close to stop.
type Cluster struct {
	cfg   Config
	ring  *Ring
	nodes []*node

	// epoch counts membership transitions (ejections and recoveries).
	// Static membership means the shard set never changes — the epoch
	// versions the *health view* of it.
	epoch atomic.Int64

	// fitted latches once the coordinated bootstrap has run (or a shard
	// reported a fitted model); bootMu serializes the bootstrap itself.
	fitted atomic.Bool
	bootMu sync.Mutex

	// Serving counters surfaced in Stats.
	degraded atomic.Int64 // responses served with the Degraded flag
	reroutes atomic.Int64 // ingest sub-batches rerouted to a successor
	rr       atomic.Int64 // round-robin cursor for calls one shard answers: train placement, model-only reads

	stop chan struct{}
	done sync.WaitGroup
}

// New builds the cluster client. Shards are assumed healthy until a
// probe or serving call says otherwise; no connection is attempted here,
// so a cluster can be constructed before its shards finish booting.
func New(cfg Config) (*Cluster, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("dmscluster: no shards configured")
	}
	cfg.defaults()
	c := &Cluster{
		cfg:  cfg,
		ring: NewRing(len(cfg.Shards), cfg.Vnodes),
		stop: make(chan struct{}),
	}
	for i, addr := range cfg.Shards {
		cl, err := dmsapi.NewClient(addr,
			dmsapi.WithoutPing(),
			dmsapi.WithRetry(cfg.Retries, cfg.Backoff),
			dmsapi.WithTimeout(cfg.Timeout),
		)
		if err != nil {
			return nil, fmt.Errorf("dmscluster: shard %d (%s): %w", i, addr, err)
		}
		n := &node{idx: i, addr: addr, client: cl}
		n.healthy.Store(true)
		c.nodes = append(c.nodes, n)
	}
	return c, nil
}

// Start launches the active health-probe loop (no-op when
// ProbeInterval < 0).
func (c *Cluster) Start() {
	if c.cfg.ProbeInterval < 0 {
		return
	}
	c.done.Add(1)
	go func() {
		defer c.done.Done()
		t := time.NewTicker(c.cfg.ProbeInterval)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				c.probeAll()
			}
		}
	}()
}

// Close stops probing and releases the per-shard connection pools.
func (c *Cluster) Close() {
	select {
	case <-c.stop:
	default:
		close(c.stop)
	}
	c.done.Wait()
	for _, n := range c.nodes {
		n.client.Close()
	}
}

// Epoch returns the membership epoch: the count of health transitions
// since construction.
func (c *Cluster) Epoch() int64 { return c.epoch.Load() }

// probeAll probes every shard's /healthz concurrently.
func (c *Cluster) probeAll() {
	var wg sync.WaitGroup
	for _, n := range c.nodes {
		wg.Add(1)
		go func(n *node) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ProbeTimeout)
			defer cancel()
			var hr dmsapi.HealthResponse
			if err := n.client.DoJSON(ctx, "GET", dmsapi.PathHealth, nil, &hr); err != nil {
				c.noteFailure(n, err)
				return
			}
			c.noteSuccess(n)
		}(n)
	}
	wg.Wait()
}

// noteFailure records a transport-level failure against a shard,
// ejecting it once FailAfter consecutive failures accumulate. Serving
// paths call this too, so a crashed shard is ejected at request speed,
// not probe speed.
func (c *Cluster) noteFailure(n *node, err error) {
	n.mu.Lock()
	n.lastErr = err.Error()
	n.mu.Unlock()
	if f := n.fails.Add(1); int(f) >= c.cfg.FailAfter && n.healthy.CompareAndSwap(true, false) {
		n.ejections.Add(1)
		c.epoch.Add(1)
		c.cfg.Logger.Warn("shard ejected",
			"shard", n.idx, "node", n.addr, "fails", f, "epoch", c.epoch.Load(), "err", err)
	}
}

// noteSuccess resets a shard's failure streak, re-admitting it if it was
// ejected.
func (c *Cluster) noteSuccess(n *node) {
	n.fails.Store(0)
	if n.healthy.CompareAndSwap(false, true) {
		c.epoch.Add(1)
		c.cfg.Logger.Info("shard re-admitted",
			"shard", n.idx, "node", n.addr, "epoch", c.epoch.Load())
	}
}

// shardFailure classifies an error from a per-shard call: only
// transport-level failures (the server never answered) count against
// health — a typed status response means the shard is alive and said no.
func (c *Cluster) shardFailure(n *node, err error) {
	var se *dmsapi.StatusError
	if errors.As(err, &se) {
		return
	}
	c.noteFailure(n, err)
}

// healthyNodes snapshots the currently healthy shard set.
func (c *Cluster) healthyNodes() []*node {
	out := make([]*node, 0, len(c.nodes))
	for _, n := range c.nodes {
		if n.healthy.Load() {
			out = append(out, n)
		}
	}
	return out
}

// NodeStatus is one shard's health view in ClusterStats.
type NodeStatus struct {
	Addr             string
	Healthy          bool
	ConsecutiveFails int
	Ejections        int64
	LastError        string
}

// ClusterStats is the smart client's membership view: per-node health,
// the membership epoch, and the routing tier's own serving counters. The
// router exports the same counters as dms_router_* families.
type ClusterStats struct {
	Epoch             int64
	Shards            int
	HealthyShards     int
	DegradedResponses int64
	Reroutes          int64
	Nodes             []NodeStatus
}

// Stats snapshots the cluster's membership and serving counters.
func (c *Cluster) Stats() ClusterStats {
	st := ClusterStats{
		Epoch:             c.epoch.Load(),
		Shards:            len(c.nodes),
		DegradedResponses: c.degraded.Load(),
		Reroutes:          c.reroutes.Load(),
		Nodes:             make([]NodeStatus, len(c.nodes)),
	}
	for i, n := range c.nodes {
		n.mu.Lock()
		lastErr := n.lastErr
		n.mu.Unlock()
		healthy := n.healthy.Load()
		if healthy {
			st.HealthyShards++
		}
		st.Nodes[i] = NodeStatus{
			Addr:             n.addr,
			Healthy:          healthy,
			ConsecutiveFails: int(n.fails.Load()),
			Ejections:        n.ejections.Load(),
			LastError:        lastErr,
		}
	}
	return st
}
