// Command dstore serves a fairDMS document store over TCP — the deployment
// unit that plays MongoDB's role in the paper's architecture. By default
// the store lives in memory and dies with the process. With -wal-dir it is
// WAL-durable (docstore.OpenDurable): every write is logged before it is
// applied, startup replays the directory's checkpoint and the log above
// it, and background compaction (-compact-interval, and once more at
// SIGINT/SIGTERM) re-logs the live state as a fresh checkpoint and drops
// the segments it supersedes — so a crash loses at most the fsync window
// (-fsync) and a restart replays little.
//
// Usage:
//
//	dstore [-addr host:port]
//	       [-wal-dir path] [-fsync always|interval|off] [-compact-interval 1m]
//	       [-latency 150us] [-v]
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fairdms/internal/docstore"
	"fairdms/internal/wal"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7717", "listen address")
	walDir := flag.String("wal-dir", "", "WAL-durable mode: directory for log segments and the checkpoint (default: in-memory only)")
	fsyncPolicy := flag.String("fsync", "interval", "WAL fsync policy: always (fsync per commit), interval (background fsync), off")
	compactInterval := flag.Duration("compact-interval", time.Minute, "background WAL-into-checkpoint compaction period (0 = only at exit)")
	latency := flag.Duration("latency", 0, "artificial per-request latency (emulates a remote link)")
	verbose := flag.Bool("v", false, "log request errors")
	flag.Parse()

	store := docstore.NewStore()
	var durable *docstore.DurableStore
	if *walDir != "" {
		policy, err := wal.ParsePolicy(*fsyncPolicy)
		if err != nil {
			log.Fatalf("dstore: %v", err)
		}
		durable, err = docstore.OpenDurable(docstore.DurableOptions{Dir: *walDir, Policy: policy})
		if err != nil {
			log.Fatalf("dstore: opening durable store: %v", err)
		}
		store = durable.Store
		ws := durable.WalStats()
		log.Printf("dstore: durable store in %s (fsync %s): replayed %d txns (%d torn, %d corrupt tails truncated)",
			*walDir, ws.Policy, ws.ReplayedTxns, ws.TornTruncations, ws.CorruptRecords)
	}

	var logger *log.Logger
	if *verbose {
		logger = log.Default()
	}
	srv := docstore.NewServer(store, docstore.ServerConfig{Latency: *latency, Logger: logger})
	// Armed before Listen: once the serving line is logged, a SIGTERM
	// takes the shutdown path below, never Go's default exit.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	bound, err := srv.Listen(*addr)
	if err != nil {
		log.Fatalf("dstore: listen: %v", err)
	}
	log.Printf("dstore: serving on %s (latency %v)", bound, *latency)

	// Background compaction loop; writers keep committing while the
	// checkpoint is cut.
	stop := make(chan struct{})
	stopped := make(chan struct{})
	if durable != nil && *compactInterval > 0 {
		go func() {
			defer close(stopped)
			ticker := time.NewTicker(*compactInterval)
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					if err := durable.Compact(); err != nil {
						log.Printf("dstore: wal compaction: %v", err)
					}
				case <-stop:
					return
				}
			}
		}()
	} else {
		close(stopped)
	}

	<-sig
	close(stop)
	<-stopped
	log.Printf("dstore: shutting down after %d requests", srv.Requests())
	if err := srv.Close(); err != nil {
		log.Printf("dstore: close: %v", err)
	}
	if durable != nil {
		// Compact so the next startup replays one checkpoint instead of the
		// whole session's log; Close still fsyncs anything left over.
		start := time.Now()
		if err := durable.Compact(); err != nil {
			log.Printf("dstore: final wal compaction: %v", err)
		}
		if err := durable.Close(); err != nil {
			log.Fatalf("dstore: closing durable store: %v", err)
		}
		log.Printf("dstore: wal compacted and closed in %v", time.Since(start).Round(time.Millisecond))
	}
}
