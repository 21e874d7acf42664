package dmsapi

import "time"

// Option tunes a Client built by NewClient: options compose, keep the
// defaults in one place, and extend without breaking call sites.
type Option func(*clientOptions)

// clientOptions is the resolved option set; NewClient applies defaults
// first, then the caller's options in order (later options win).
type clientOptions struct {
	retries  int
	backoff  time.Duration
	timeout  time.Duration
	poolSize int
	ping     bool
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

// WithoutPing skips the constructor's /healthz probe, letting a client be
// built for a server that is still starting (the cluster tier constructs
// per-shard clients before the shards are necessarily up).
func WithoutPing() Option {
	return func(o *clientOptions) { o.ping = false }
}
