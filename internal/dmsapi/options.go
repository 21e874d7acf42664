package dmsapi

import (
	"time"

	"fairdms/internal/obs"
)

// Option tunes a Client built by NewClient: options compose, keep the
// defaults in one place, and extend without breaking call sites.
type Option func(*clientOptions)

// clientOptions is the resolved option set; NewClient applies defaults
// first, then the caller's options in order (later options win).
type clientOptions struct {
	retries     int
	backoff     time.Duration
	timeout     time.Duration
	poolSize    int
	traceSample int
	onTrace     func(op string, dump obs.TraceDump)
	seeds       []string
	ping        bool
}

func defaultOptions() clientOptions {
	return clientOptions{
		retries:  2,
		backoff:  50 * time.Millisecond,
		timeout:  30 * time.Second,
		poolSize: 32,
		ping:     true,
	}
}

// WithRetry sets the number of extra attempts after a transport-level
// failure and the base backoff delay (multiplied by the attempt number).
// retries 0 disables retrying; backoff <= 0 keeps the default 50ms.
func WithRetry(retries int, backoff time.Duration) Option {
	return func(o *clientOptions) {
		o.retries = retries
		if backoff > 0 {
			o.backoff = backoff
		}
	}
}

// WithTimeout bounds each HTTP request end to end.
func WithTimeout(d time.Duration) Option {
	return func(o *clientOptions) {
		if d > 0 {
			o.timeout = d
		}
	}
}

// WithPool sets the keep-alive connection pool size (idle connections
// retained, total and per host). Larger pools help many-goroutine
// closed-loop workloads; the default is 32.
func WithPool(n int) Option {
	return func(o *clientOptions) {
		if n > 0 {
			o.poolSize = n
		}
	}
}

// WithTraceSample traces every nth request end to end: the client builds
// a span tree around the exchange, asks the server for its span tree back
// (X-Dms-Trace request header, span trailer on the response), and grafts
// the server's tree under the round-trip span — one contiguous view from
// client_request down to the fairds stages. onTrace receives each sampled
// request's merged tree with op "METHOD /path"; it is called
// synchronously on the requesting goroutine after the response is
// consumed, so keep it cheap. n <= 0 or a nil onTrace disables sampling.
func WithTraceSample(n int, onTrace func(op string, dump obs.TraceDump)) Option {
	return func(o *clientOptions) {
		o.traceSample = n
		o.onTrace = onTrace
	}
}

// WithSeeds adds fallback server addresses ("host:port"). The client
// talks to one server at a time and rotates to the next seed on a
// transport-level failure, so a cluster deployment can list every router
// (or every shard of a replicated tier) and survive any one of them
// dying. The dial address is always the first candidate.
func WithSeeds(addrs ...string) Option {
	return func(o *clientOptions) { o.seeds = append(o.seeds, addrs...) }
}

// WithoutPing skips the constructor's /healthz probe, letting a client be
// built for a server that is still starting (the cluster tier constructs
// per-shard clients before the shards are necessarily up).
func WithoutPing() Option {
	return func(o *clientOptions) { o.ping = false }
}
