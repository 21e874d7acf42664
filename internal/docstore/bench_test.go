package docstore

import (
	"fmt"
	"testing"
)

func benchCollection(n int) *Collection {
	return benchCollectionShards(n, defaultShardCount())
}

func benchCollectionShards(n, shards int) *Collection {
	return benchCollectionClusters(n, shards, 16)
}

func benchCollectionClusters(n, shards, clusters int) *Collection {
	c := newCollectionShards("bench", shards)
	c.CreateHashIndex("cluster")
	batch := make([]Fields, n)
	for i := range batch {
		batch[i] = Fields{"cluster": i % clusters, "v": float64(i), "payload": make([]byte, 256)}
	}
	c.InsertMany(batch)
	return c
}

func BenchmarkInsert(b *testing.B) {
	c := NewStore().Collection("bench")
	c.CreateHashIndex("cluster")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Insert("", Fields{"cluster": i % 16, "v": i}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInsertMany100(b *testing.B) {
	c := NewStore().Collection("bench")
	batch := make([]Fields, 100)
	for i := range batch {
		batch[i] = Fields{"cluster": i % 16}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.InsertMany(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFindIndexed vs BenchmarkFindScan is the index ablation: the
// same equality query against an indexed vs unindexed field.
func BenchmarkFindIndexed(b *testing.B) {
	c := benchCollection(4096)
	q := Query{Filters: []Filter{Eq("cluster", 7)}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.FindIDs(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFindScan(b *testing.B) {
	c := benchCollection(4096)
	q := Query{Filters: []Filter{Eq("v", 7.0)}} // unindexed field
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.FindIDs(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFindScanShards is the sharding ablation: the same unindexed
// full-scan query against stripe counts from 1 (the seed's single-lock
// layout) up to 16. Scan work fans out one goroutine per shard, so
// throughput should rise with the stripe count on multi-core machines.
func BenchmarkFindScanShards(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			c := benchCollectionShards(65536, shards)
			q := Query{Filters: []Filter{Eq("v", 7.0)}}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.FindIDs(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFindScanParallelClients adds concurrent readers on top: many
// goroutines issuing full scans at once, which on the single-stripe
// layout all serialize behind one RWMutex.
func BenchmarkFindScanParallelClients(b *testing.B) {
	for _, shards := range []int{1, defaultShardCount()} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			c := benchCollectionShards(16384, shards)
			q := Query{Filters: []Filter{Eq("v", 7.0)}}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := c.FindIDs(q); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkCountWhereShards measures the sort-free parallel count path.
func BenchmarkCountWhereShards(b *testing.B) {
	for _, shards := range []int{1, defaultShardCount()} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			c := benchCollectionShards(65536, shards)
			q := Query{Filters: []Filter{Eq("cluster", 3)}}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.CountWhere(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkInsertParallelShards measures striped-lock write throughput:
// concurrent single-doc inserts against 1 vs N stripes.
func BenchmarkInsertParallelShards(b *testing.B) {
	for _, shards := range []int{1, defaultShardCount()} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			c := newCollectionShards("bench", shards)
			c.CreateHashIndex("cluster")
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					if _, err := c.Insert("", Fields{"cluster": i % 16, "v": float64(i)}); err != nil {
						b.Fatal(err)
					}
					i++
				}
			})
		})
	}
}

// BenchmarkFindProjected vs BenchmarkFindFull is the projection ablation:
// fetching only a small field vs whole documents with payloads.
func BenchmarkFindProjected(b *testing.B) {
	c := benchCollection(2048)
	q := Query{Filters: []Filter{Eq("cluster", 3)}, Project: []string{"v"}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Find(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFindFull(b *testing.B) {
	c := benchCollection(2048)
	q := Query{Filters: []Filter{Eq("cluster", 3)}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Find(q); err != nil {
			b.Fatal(err)
		}
	}
}

func benchRemote(b *testing.B, pool int) {
	srv := NewServer(NewStore(), ServerConfig{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(addr, pool)
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	var ids []string
	for i := 0; i < 64; i++ {
		id, err := cl.Insert("c", "", Fields{"payload": make([]byte, 1024)})
		if err != nil {
			b.Fatal(err)
		}
		ids = append(ids, id)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := cl.Get("c", ids[i%len(ids)]); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

func BenchmarkRemoteGetPool1(b *testing.B) { benchRemote(b, 1) }
func BenchmarkRemoteGetPool8(b *testing.B) { benchRemote(b, 8) }

// BenchmarkSampleIDs is one bucket's draw over 2 stripes: 4 Ki and 32 Ki
// members (serve_scan's corpus is 32 Ki documents), drawing n = 8, about
// one cluster's share of a 64-sample lookup, and n = 64. A lookup draws
// under a fixed seed, so from the second draw on it reads the stripes'
// draw slabs; seeds=cycled draws under a new seed each time, the cost of
// a draw whose slab must be built.
func BenchmarkSampleIDs(b *testing.B) {
	for _, docs := range []int{4096, 32768} {
		c := benchCollectionClusters(docs, 2, 1)
		q := Query{Filters: []Filter{Eq("cluster", 0)}}
		for _, n := range []int{8, 64} {
			for _, seeds := range []string{"fixed", "cycled"} {
				b.Run(fmt.Sprintf("docs=%d/n=%d/seeds=%s", docs, n, seeds), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						seed := int64(1)
						if seeds == "cycled" {
							seed = int64(i)
						}
						ids, err := c.SampleIDs(q, n, seed)
						if err != nil || len(ids) != n {
							b.Fatalf("drew %d of %d: %v", len(ids), n, err)
						}
						benchSink = ids
					}
				})
			}
		}
	}
}

var benchSink []string
