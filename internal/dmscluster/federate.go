package dmscluster

import (
	"context"
	"sync"
	"time"

	"fairdms/internal/dmsapi"
	"fairdms/internal/obs"
)

// Fleet metrics scraping: the router-side half of metrics federation.
// Each federated /metricsz request scrapes the currently healthy shard
// set live, so an ejected shard's series age out of the merged exposition
// the moment health probing drops it — no TTL bookkeeping.

// scrapeTimeout bounds one fleet scrape; a shard slower than this is
// simply absent from that scrape (and the transport failure counts
// against its health like any serving call).
const scrapeTimeout = 2 * time.Second

// ScrapeFleet fetches and parses every healthy shard's /metricsz
// concurrently, returning one NodeExposition per shard that answered
// with a parseable exposition. The node identity is the shard address —
// the one name the routing tier knows shards by. Transport failures are
// charged against shard health; parse failures are not (the shard
// answered; its exposition is just unusable this scrape).
func (c *Cluster) ScrapeFleet(ctx context.Context) []obs.NodeExposition {
	ctx, cancel := context.WithTimeout(ctx, scrapeTimeout)
	defer cancel()

	nodes := c.healthyNodes()
	out := make([]obs.NodeExposition, len(nodes))
	var wg sync.WaitGroup
	for i, n := range nodes {
		wg.Add(1)
		go func(i int, n *node) {
			defer wg.Done()
			raw, err := n.client.DoRaw(ctx, "GET", dmsapi.PathMetrics, nil)
			if err != nil {
				c.shardFailure(n, err)
				c.cfg.Logger.Warn("fleet metrics scrape failed", "node", n.addr, "err", err)
				return
			}
			c.noteSuccess(n)
			fams, err := obs.ParseExposition(raw)
			if err != nil {
				c.cfg.Logger.Warn("fleet metrics unparseable", "node", n.addr, "err", err)
				return
			}
			out[i] = obs.NodeExposition{Node: n.addr, Families: fams}
		}(i, n)
	}
	wg.Wait()

	scraped := out[:0]
	for _, ne := range out {
		if ne.Node != "" {
			scraped = append(scraped, ne)
		}
	}
	return scraped
}
