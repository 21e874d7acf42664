package main

import (
	"math/rand"

	"fairdms/internal/codec"
	"fairdms/internal/datagen"
	"fairdms/internal/nn"
	"fairdms/internal/stats"
)

// opKind is one client-visible operation.
type opKind uint8

const (
	opNearest opKind = iota
	opCertainty
	opRecommend
	opLookup
	opIngest
	opTrain
	opCheckpoint
	numKinds
)

var kindNames = [numKinds]string{"nearest", "certainty", "recommend", "lookup", "ingest_batch", "train", "checkpoint"}

func (k opKind) String() string { return kindNames[k] }

// op is one step of a serving sequence: a read over a window of the query
// pool, or a recommend over a PDF.
type op struct {
	kind opKind
	lo   int       // first query-pool sample of the window
	pdf  stats.PDF // recommend only
}

// spec fixes one workload. Counts that scale with -seconds are given as
// rates measured on the seed commit (2 vCPUs), so "-seconds 10" sizes a
// measured phase of about ten seconds there while the work itself stays a
// pure function of (seed, seconds): the same on both sides of a comparison.
type spec struct {
	name string
	why  string

	patch  int // square patch edge
	corpus int // documents seeded in set-up
	zoo    int // models seeded in set-up
	query  int // samples per read request
	// hotPDFs > 0 draws every recommend from that many repeating PDFs (the
	// response LRU holds them all); 0 makes every recommend PDF unique.
	hotPDFs int
	// perSecond is the workload's unit of fixed work per -seconds second:
	// read ops (serve_*, cluster_serve), ingest batches (ingest_recover),
	// updates (update_cycle).
	perSecond float64
	// floor is the smallest count a run uses whatever -seconds says, so no
	// gated percentile rests on a handful of samples.
	floor int
	// chunk is the units of work per chunk of the measured phase (see
	// recorder), about 0.2 s of it; a run's count is a whole number of
	// chunks and a serving chunk a whole number of mix blocks.
	chunk int

	run func(*runCtx) error
}

const (
	seedBatch   = 256 // documents per set-up IngestBatch
	ingestBatch = 256 // documents per measured IngestBatch (ingest_recover)
	clusterK    = 8   // dmsd's default -k; every PDF has this many bins
)

// specs lists the five workloads in report order. ISSUE.md's op counts
// (40,000 / 5,000 / 2,200 / 600 / 30) gave 20–26 s measured phases; the
// driver's 3,420 s for 114 runs leaves about 10 s, so every count is its
// rate times -seconds (see README "Sizing").
var specs = []*spec{
	{
		name:  "serve_hot",
		why:   "small corpus, 8-sample reads, 16 repeating recommend PDFs: per-request cost (HTTP, JSON, admission, response cache) is nearly all of the time",
		patch: 11, corpus: 2048, zoo: 8, query: 8, hotPDFs: 16,
		perSecond: 2400, floor: 2000, chunk: 360,
		run: runServe,
	},
	{
		name:  "serve_scan",
		why:   "32,768-document corpus, 512 models, 64-sample reads, unique recommend PDFs: embed, vecindex, docstore decode and zoo ranking dominate, caches are bypassed",
		patch: 11, corpus: 32768, zoo: 512, query: 64,
		perSecond: 270, floor: 1000, chunk: 45,
		run: runServe,
	},
	{
		name:  "cluster_serve",
		why:   "the serve_scan sequence through dmsrouter over 3 shards: the difference to serve_scan is the scatter-gather tier's cost",
		patch: 11, corpus: 32768, zoo: 512, query: 64,
		perSecond: 120, floor: 500, chunk: 45,
		run: runServe,
	},
	{
		name:  "ingest_recover",
		why:   "WAL-durable dmsd (fsync always): batch ingest beside reads on a growing corpus, then SIGKILL/restart cycles; the only workload where codec encode, docstore txn and wal do the work",
		patch: 11, query: 32,
		perSecond: 45, floor: 200, chunk: 10,
		run: runIngestRecover,
	},
	{
		name:  "update_cycle",
		why:   "the paper's Fig. 5 action on drifted Bragg scans: certainty, pseudo-labelling lookups, server-side BraggNN fine-tune, checkpoint download; trainer, nn and tensor do most of the work",
		patch: 15, corpus: 16 * 512, zoo: 4, query: 512,
		perSecond: 1.4, floor: 20, chunk: 2,
		run: runUpdateCycle,
	},
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

// Distinct streams keep each input a function of the seed alone: growing
// the op sequence never changes the corpus, and cluster_serve's prefix of
// the serve_scan sequence is exact.
const (
	streamCorpus = iota + 1
	streamQueries
	streamOps
	streamZoo
	streamIngest
	streamWarm
	streamHotPDFs
)

func stream(seed int64, which int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + which))
}

// bootstrapSeed generates the first seedBatch documents of every corpus,
// whatever -seed says. The daemon fits its clustering model on that batch
// alone, and cluster geometry sets every scan width and lookup
// apportionment; k-means cuts the single-regime Bragg blob differently for
// every sample, so a seeded bootstrap batch made nearest latency a property
// of the seed (±5%) rather than of the code.
const bootstrapSeed = 1

// genCorpus draws n documents: the fixed bootstrap batch, then seeded ones.
func genCorpus(regime datagen.BraggRegime, seed int64, n int) []*codec.Sample {
	head := regime.Generate(stream(bootstrapSeed, streamCorpus), min(n, seedBatch))
	return append(head, regime.Generate(stream(seed, streamIngest), n-len(head))...)
}

func braggRegime(patch int) datagen.BraggRegime {
	r := datagen.DefaultBraggRegime()
	r.Patch = patch
	return r
}

// randomPDF draws a valid clusterK-bin distribution with no empty bin.
func randomPDF(rng *rand.Rand) stats.PDF {
	p := make(stats.PDF, clusterK)
	total := 0.0
	for i := range p {
		p[i] = 0.05 + rng.Float64()
		total += p[i]
	}
	for i := range p {
		p[i] /= total
	}
	return p
}

// queryPoolSize is large enough that serve_scan's 64-sample windows rarely
// repeat: no cache in the stack can hold the working set.
const queryPoolSize = 4096

// serveInputs are the generated inputs of a serving workload.
type serveInputs struct {
	corpus  []*codec.Sample
	queries []*codec.Sample
	zooPDFs []stats.PDF
	ops     []op
	warm    []op // a tenth as many, run unrecorded at the end of set-up
}

// serveMix is nearest 4 : certainty 2 : recommend 2 : lookup 1.
var serveMix = [9]opKind{
	opNearest, opNearest, opNearest, opNearest,
	opCertainty, opCertainty, opRecommend, opRecommend, opLookup,
}

// genServeOps draws n ops from rng, n a multiple of the mix length. Kinds
// come in shuffled blocks of nine, so every block — and every chunk, a
// whole number of blocks — holds the mix exactly: a lookup costs ten
// recommends, and letting their counts float would move ops/s by more than
// the bound. The draw order is fixed (block shuffle, then each op's window
// or PDF), so a shorter sequence is a prefix of a longer one.
func genServeOps(rng *rand.Rand, n, query int, hot []stats.PDF) []op {
	ops := make([]op, 0, n)
	for len(ops) < n {
		block := serveMix
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, kind := range block {
			o := op{kind: kind}
			switch {
			case kind != opRecommend:
				o.lo = rng.Intn(queryPoolSize - query)
			case len(hot) > 0:
				o.pdf = hot[rng.Intn(len(hot))]
			default:
				o.pdf = randomPDF(rng)
			}
			ops = append(ops, o)
		}
	}
	return ops[:n]
}

func randomPDFs(rng *rand.Rand, n int) []stats.PDF {
	out := make([]stats.PDF, n)
	for i := range out {
		out[i] = randomPDF(rng)
	}
	return out
}

// genServeInputs generates a serving workload's inputs for n measured ops.
// Warm-up ops come from their own stream: replaying a prefix of the
// measured sequence would park its "unique" recommend PDFs in the response
// LRU and hand serve_scan cache hits it is defined not to have.
func genServeInputs(s *spec, seed int64, n int) *serveInputs {
	regime := braggRegime(s.patch)
	hot := randomPDFs(stream(seed, streamHotPDFs), s.hotPDFs)
	return &serveInputs{
		corpus:  genCorpus(regime, seed, s.corpus),
		queries: regime.Generate(stream(seed, streamQueries), queryPoolSize),
		zooPDFs: randomPDFs(stream(seed, streamZoo), s.zoo),
		ops:     genServeOps(stream(seed, streamOps), n, s.query, hot),
		warm:    genServeOps(stream(seed, streamWarm), n/10/len(serveMix)*len(serveMix), s.query, hot),
	}
}

// zooState is the small checkpoint every seeded zoo model carries: recommend
// ranks PDFs, so the weights only need to exist.
func zooState() *nn.StateDict {
	return nn.Sequential(nn.NewLinear(rand.New(rand.NewSource(1)), 4, 2)).State()
}
