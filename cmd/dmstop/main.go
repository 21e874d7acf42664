// Command dmstop is a live terminal dashboard for a fairDMS fleet: it
// scrapes a dmsrouter's /metricsz once per frame and redraws one screen of
// per-shard health, RPS, latency quantiles, WAL lag, ejections, and SLO
// burn rates. The router's federated exposition already carries every
// healthy shard's series under node=<addr>, so one request covers the
// fleet. Pointed at a single dmsd instead, it shows that daemon's
// endpoint table.
//
// Built on stdlib only — plain ANSI clear-and-redraw, no terminal
// library — so it runs anywhere the daemons do.
//
// Usage:
//
//	dmstop -addr 127.0.0.1:7718              # live, redraw every 2s
//	dmstop -addr 127.0.0.1:7718 -once        # one snapshot (scripts, CI)
//	dmstop -addr 127.0.0.1:7718 -interval 1s
//
// -once prints a single snapshot without clearing the screen and exits 0
// on success, making it usable as a smoke probe.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"fairdms/internal/dmsapi"
	"fairdms/internal/obs"
)

// poller scrapes one address, remembering the previous request counters
// so RPS is a true delta between polls.
type poller struct {
	addr     string
	client   *http.Client
	lastPoll time.Time
	lastReqs map[string]float64 // node (or "" for the polled tier) → requests at lastPoll
}

func newPoller(addr string, timeout time.Duration) *poller {
	return &poller{
		addr:     addr,
		client:   &http.Client{Timeout: timeout},
		lastReqs: make(map[string]float64),
	}
}

// scrape fetches and parses the polled tier's /metricsz: the frame's one
// HTTP request.
func (p *poller) scrape() (expo, error) {
	resp, err := p.client.Get("http://" + p.addr + dmsapi.PathMetrics)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s%s: %s", p.addr, dmsapi.PathMetrics, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	fams, err := obs.ParseExposition(body)
	if err != nil {
		return nil, err
	}
	e := make(expo, len(fams))
	for _, f := range fams {
		e[f.Name] = f
	}
	return e, nil
}

// rps converts a request counter into requests/second: delta against the
// previous poll when there is one, lifetime average otherwise.
func (p *poller) rps(key string, requests, uptime float64, now time.Time) float64 {
	prev, seen := p.lastReqs[key]
	p.lastReqs[key] = requests
	if seen && !p.lastPoll.IsZero() {
		if dt := now.Sub(p.lastPoll).Seconds(); dt > 0 {
			return (requests - prev) / dt
		}
	}
	if uptime > 0 {
		return requests / uptime
	}
	return 0
}

// expo is one scrape, its families by name.
type expo map[string]obs.Family

// sample returns the line of family name with the given suffix ("" or a
// summary's "_count") whose label set is exactly labels, given as
// key, value pairs.
func (e expo) sample(name, suffix string, labels ...string) (float64, bool) {
next:
	for _, s := range e[name].Samples {
		if s.Suffix != suffix || 2*len(s.Labels) != len(labels) {
			continue
		}
		for i := 0; i < len(labels); i += 2 {
			if s.Get(labels[i]) != labels[i+1] {
				continue next
			}
		}
		return s.Value, true
	}
	return 0, false
}

// value is sample for a family whose absence reads as zero.
func (e expo) value(name string, labels ...string) float64 {
	v, _ := e.sample(name, "", labels...)
	return v
}

// render draws one frame from one scrape into a builder; the caller
// decides whether to clear the screen first. A router is told from a
// dmsd by its dms_router_shards family.
func render(b *strings.Builder, p *poller, now time.Time) error {
	e, err := p.scrape()
	if err != nil {
		return err
	}
	if _, ok := e["dms_router_shards"]; ok {
		renderCluster(b, p, e, now)
	} else {
		renderSingle(b, p, e, now)
	}
	return nil
}

func header(b *strings.Builder, e expo, kind, addr, pre string) {
	var version, revision string
	if f := e[pre+"build_info"]; len(f.Samples) > 0 {
		version, revision = f.Samples[0].Get("version"), f.Samples[0].Get("revision")
	}
	if len(revision) > 10 {
		revision = revision[:10]
	}
	up := time.Duration(e.value(pre+"uptime_seconds")) * time.Second
	fmt.Fprintf(b, "dmstop · %s %s · up %s · build %s@%s\n\n", kind, addr, up, version, revision)
}

func fmtMS(seconds float64) string { return fmt.Sprintf("%.2f", seconds*1e3) }

// walLag reports a dmsd's unsynced WAL appends (appends - syncs), "-"
// without a WAL: a growing lag means the fsync loop is falling behind the
// write rate. node selects a shard's series in a federated scrape.
func walLag(e expo, node ...string) string {
	appends, ok := e.sample("dms_wal_appends_total", "", node...)
	if !ok {
		return "-"
	}
	return fmt.Sprintf("%d", int64(max(appends-e.value("dms_wal_syncs_total", node...), 0)))
}

func renderCluster(b *strings.Builder, p *poller, e expo, now time.Time) {
	header(b, e, "router", p.addr, "dms_router_")
	fmt.Fprintf(b, "cluster: epoch %d · %d/%d shards healthy · %d degraded responses · %d reroutes · router %.1f rps\n\n",
		int64(e.value("dms_router_membership_epoch")),
		int64(e.value("dms_router_healthy_shards")), int64(e.value("dms_router_shards")),
		int64(e.value("dms_router_degraded_responses_total")), int64(e.value("dms_router_reroutes_total")),
		p.rps("", e.value("dms_router_requests_total"), e.value("dms_router_uptime_seconds"), now))

	// Shards: the router's health view joined with each live shard's
	// federated series for RPS, latency, and WAL lag (absent while the
	// shard is ejected).
	fmt.Fprintf(b, "%-22s %-8s %-6s %9s %9s %9s %9s %8s %5s\n",
		"SHARD", "HEALTH", "FAILS", "RPS", "P50 MS", "P99 MS", "P999 MS", "WAL LAG", "EJECT")
	for _, s := range e["dms_router_node_healthy"].Samples {
		addr := s.Get(obs.NodeLabel)
		health := "ok"
		if s.Value == 0 {
			health = "DOWN"
		}
		rps, p50, p99, p999, lag := "-", "-", "-", "-", "-"
		if reqs, ok := e.sample("dms_requests_total", "", obs.NodeLabel, addr); ok {
			rps = fmt.Sprintf("%.1f", p.rps(addr, reqs, e.value("dms_uptime_seconds", obs.NodeLabel, addr), now))
			// Worst-case view across endpoints: the slowest quantile any
			// endpoint reports this poll.
			worst := map[string]float64{}
			for _, l := range e["dms_endpoint_latency_seconds"].Samples {
				if q := l.Get("quantile"); q != "" && l.Get(obs.NodeLabel) == addr {
					worst[q] = max(worst[q], l.Value)
				}
			}
			p50, p99, p999 = fmtMS(worst["0.5"]), fmtMS(worst["0.99"]), fmtMS(worst["0.999"])
			lag = walLag(e, obs.NodeLabel, addr)
		}
		fmt.Fprintf(b, "%-22s %-8s %-6d %9s %9s %9s %9s %8s %5d\n",
			addr, health, int64(e.value("dms_router_node_consecutive_fails", obs.NodeLabel, addr)),
			rps, p50, p99, p999, lag, int64(e.value("dms_router_node_ejections_total", obs.NodeLabel, addr)))
	}

	b.WriteString("\n")
	endpointTable(b, e, "dms_router_")

	if slos := e["dms_slo_budget"].Samples; len(slos) > 0 {
		b.WriteString("\n")
		fmt.Fprintf(b, "%-28s %10s %10s %10s %8s\n", "SLO", "BUDGET", "FAST BURN", "SLOW BURN", "STATE")
		for _, s := range slos {
			id := s.Get("objective")
			fast := e.value("dms_slo_fast_burn", "objective", id)
			state := "ok"
			if fast > 1 {
				state = "BREACH"
			}
			fmt.Fprintf(b, "%-28s %10.4f %10.2f %10.2f %8s\n",
				id, s.Value, fast, e.value("dms_slo_slow_burn", "objective", id), state)
		}
	}
}

func renderSingle(b *strings.Builder, p *poller, e expo, now time.Time) {
	header(b, e, "dmsd", p.addr, "dms_")
	fmt.Fprintf(b, "%.1f rps · %d in flight · %d shed · wal lag %s\n\n",
		p.rps("", e.value("dms_requests_total"), e.value("dms_uptime_seconds"), now),
		int64(e.value("dms_in_flight")), int64(e.value("dms_shed_total")), walLag(e))
	endpointTable(b, e, "dms_")
}

// endpointTable lists the tier's endpoints that have served requests,
// busiest first.
func endpointTable(b *strings.Builder, e expo, pre string) {
	fmt.Fprintf(b, "%-22s %10s %8s %9s %9s %9s\n", "ENDPOINT", "COUNT", "ERRORS", "P50 MS", "P99 MS", "P999 MS")
	lat := pre + "endpoint_latency_seconds"
	type row struct {
		name  string
		count float64
	}
	var rows []row
	for _, s := range e[lat].Samples {
		if s.Suffix == "_count" && s.Value > 0 {
			rows = append(rows, row{s.Get("endpoint"), s.Value})
		}
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].count > rows[j].count })
	for _, r := range rows {
		q := func(q string) string { return fmtMS(e.value(lat, "endpoint", r.name, "quantile", q)) }
		fmt.Fprintf(b, "%-22s %10d %8d %9s %9s %9s\n", r.name, int64(r.count),
			int64(e.value(pre+"endpoint_errors_total", "endpoint", r.name)), q("0.5"), q("0.99"), q("0.999"))
	}
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7718", "router or dmsd address to poll")
	interval := flag.Duration("interval", 2*time.Second, "poll and redraw cadence")
	timeout := flag.Duration("timeout", 3*time.Second, "per-request HTTP timeout")
	once := flag.Bool("once", false, "print one snapshot and exit (scripts, CI)")
	flag.Parse()

	p := newPoller(*addr, *timeout)
	for {
		now := time.Now()
		var b strings.Builder
		err := render(&b, p, now)
		p.lastPoll = now
		if err != nil {
			if *once {
				fmt.Fprintf(os.Stderr, "dmstop: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "dmstop: %v (retrying in %s)\n", err, *interval)
		} else {
			if !*once {
				// ANSI clear screen + home: full redraw each frame.
				fmt.Print("\x1b[2J\x1b[H")
			}
			fmt.Print(b.String())
		}
		if *once {
			return
		}
		time.Sleep(*interval)
	}
}
