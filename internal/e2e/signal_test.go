package e2e

import (
	"os"
	"path/filepath"
	"testing"
)

// TestDaemonsStopRightAfterServing: a daemon's serving line means it can
// also be stopped. Each daemon gets SIGTERM as soon as that line appears
// and must take its own shutdown path — exit 0, not Go's default death by
// signal. dmsd on a WAL has logged its embedder record by then, so its
// shutdown must also leave a checkpoint; an empty dstore has nothing to
// compact.
func TestDaemonsStopRightAfterServing(t *testing.T) {
	t.Run("dmsd", func(t *testing.T) {
		walDir := t.TempDir()
		listen(t, "dmsd", "-wal-dir", walDir).stop(t)
		if fi, err := os.Stat(filepath.Join(walDir, "checkpoint.wal")); err != nil || fi.Size() == 0 {
			t.Fatalf("no checkpoint after SIGTERM: %v", err)
		}
	})
	t.Run("dstore", func(t *testing.T) {
		listen(t, "dstore", "-wal-dir", t.TempDir()).stop(t)
	})
	t.Run("dmsrouter", func(t *testing.T) {
		shard := listen(t, "dmsd")
		listen(t, "dmsrouter", "-shards", shard.addr).stop(t)
		shard.stop(t)
	})
}
