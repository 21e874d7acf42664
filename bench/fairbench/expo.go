package main

import (
	"fmt"
	"io"
	"net/http"
	"strings"

	"fairdms/internal/dmsapi"
	"fairdms/internal/obs"
)

// counters is one /metricsz scrape flattened to series → value. A series
// key is the family name plus its sample suffix and labels in exposition
// order, e.g. `dms_endpoint_latency_seconds_count{endpoint="data.nearest"}`.
type counters map[string]float64

// parseCounters flattens an exposition through obs.ParseExposition, the
// same parser the router federates with — not the /statsz struct, which
// ROADMAP item 2c regenerates.
func parseCounters(text []byte) (counters, error) {
	fams, err := obs.ParseExposition(text)
	if err != nil {
		return nil, err
	}
	out := make(counters)
	for _, f := range fams {
		for _, s := range f.Samples {
			key := f.Name + s.Suffix
			if len(s.Labels) > 0 {
				parts := make([]string, len(s.Labels))
				for i, l := range s.Labels {
					parts[i] = fmt.Sprintf("%s=%q", l.Key, l.Value)
				}
				key += "{" + strings.Join(parts, ",") + "}"
			}
			out[key] += s.Value
		}
	}
	return out, nil
}

func scrape(addr string) (counters, error) {
	resp, err := http.Get("http://" + addr + dmsapi.PathMetrics)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("fairbench: %s%s: status %d", addr, dmsapi.PathMetrics, resp.StatusCode)
	}
	return parseCounters(body)
}

// scrapeAll sums the scrapes of several daemons (the shards of a cluster).
func scrapeAll(addrs []string) (counters, error) {
	total := make(counters)
	for _, a := range addrs {
		c, err := scrape(a)
		if err != nil {
			return nil, err
		}
		for k, v := range c {
			total[k] += v
		}
	}
	return total, nil
}

// delta returns after − before per series. A series absent before counts
// from zero; one that vanished (a restarted daemon) is dropped.
func (before counters) delta(after counters) counters {
	out := make(counters, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// ratio is num ÷ (num + rest), or 0 when nothing was counted.
func (c counters) ratio(num, rest string) float64 {
	if t := c[num] + c[rest]; t > 0 {
		return c[num] / t
	}
	return 0
}
