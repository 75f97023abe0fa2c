// Package websearch implements the index-serving node of an interactive
// web search engine on simulated memory — the WebSearch workload of the
// paper's case study (Section V-A).
//
// Like the production system it models, the node keeps a large read-only
// index as an in-memory cache of data that also lives in persistent
// storage (the private region, mmap-like, file-backed), serves each query
// by walking posting lists and ranking candidates, and returns the top
// four documents. Dynamic state — document snippets and a query result
// cache — lives in the heap region; per-query locals (the query terms,
// posting cursors, and the running top-4) live in stack frames that are
// pushed, written, and popped per request.
//
// Memory layout (all offsets region-relative):
//
//	private: [term table: numTerms × {postingStart u32, postingCount u32}]
//	         [postings:   numPostings × {docID u32, weight f32}]
//	         [doc table:  numDocs × {popularity f32}]
//	heap:    [snippets:   numDocs × snippetLen bytes]
//	         [result cache: slots × {tag u64, 4 × {docID u32, score f32}}]
//	stack:   per-query frame {terms, posting cursor/end, top-4 ids/scores}
package websearch

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"hrmsim/internal/apps"
	"hrmsim/internal/simmem"
	"hrmsim/internal/trace"
)

// Config parameterizes a WebSearch build. Sizes are scaled-down but keep
// the paper's Table 3 shape: the private index dominates, the heap is a
// few times smaller, the stack is tiny.
type Config struct {
	// Seed drives all synthetic data generation.
	Seed int64
	// Docs is the corpus size.
	Docs int
	// Vocab is the vocabulary size.
	Vocab int
	// MinTerms and MaxTerms bound distinct terms per document.
	MinTerms, MaxTerms int
	// Queries is the client workload length.
	Queries int
	// QuerySeed, when nonzero, draws the query trace from its own
	// generator, so servers built with different Seed (distinct index
	// shards) can serve an identical query stream — the setup of the
	// multi-server aggregation experiment.
	QuerySeed int64
	// MaxQueryTerms bounds terms per query.
	MaxQueryTerms int
	// CacheSlots sizes the direct-mapped heap result cache.
	CacheSlots int
	// SnippetLen is the per-document snippet size in heap.
	SnippetLen int
	// RequestCost advances the virtual clock per query.
	RequestCost time.Duration
	// OpBudget caps simulated memory operations per query (watchdog).
	OpBudget int
	// PrivateCodec etc. optionally protect regions (HRM experiments).
	PrivateCodec, HeapCodec, StackCodec simmem.Codec
	// PrivateMC etc. install software responses for uncorrectable errors.
	PrivateMC, HeapMC, StackMC simmem.MCHandler
}

// DefaultConfig returns a laptop-scale configuration (~1.4 MiB private
// index, ~0.35 MiB heap, 64 KiB stack — the paper's 36 GB / 9 GB / 60 MB
// shape at 1/25000 scale).
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:          seed,
		Docs:          4096,
		Vocab:         2048,
		MinTerms:      8,
		MaxTerms:      56,
		Queries:       400,
		MaxQueryTerms: 4,
		CacheSlots:    1024,
		SnippetLen:    48,
		RequestCost:   10 * time.Millisecond,
		OpBudget:      200000,
	}
}

// SizedConfig is DefaultConfig at a campaign workload size, with requests
// spread over ~20 virtual minutes at SizeMedium, comparable to the paper's
// observation windows (Fig. 5a, the 5-minute flush rule). SizeLarge is
// DefaultConfig's own geometry.
func SizedConfig(size apps.Size, seed int64) (Config, error) {
	cfg := DefaultConfig(seed)
	cfg.RequestCost = 10 * time.Second
	switch size {
	case apps.SizeSmall:
		cfg.Docs, cfg.Vocab, cfg.MinTerms, cfg.MaxTerms = 256, 128, 4, 12
		cfg.Queries, cfg.CacheSlots = 60, 32
	case apps.SizeMedium:
		cfg.Docs, cfg.Vocab, cfg.MinTerms, cfg.MaxTerms = 1024, 512, 6, 24
		cfg.Queries, cfg.CacheSlots = 120, 256
	case apps.SizeLarge:
	default:
		return cfg, fmt.Errorf("websearch: unknown workload size %d", size)
	}
	return cfg, nil
}

const (
	termEntryBytes  = 8
	postingBytes    = 8
	docEntryBytes   = 4
	topK            = 4
	cacheEntryBytes = 8 + topK*8 // tag + 4 × (docID, score)
)

// Builder pre-generates the corpus and query trace once; Build serializes
// them into a fresh address space per trial.
type Builder struct {
	cfg     Config
	corpus  *trace.Corpus
	queries []trace.Query
}

// NewBuilder generates the synthetic dataset for the given configuration.
func NewBuilder(cfg Config) (*Builder, error) {
	if cfg.Docs <= 0 || cfg.Queries <= 0 {
		return nil, fmt.Errorf("websearch: docs (%d) and queries (%d) must be positive", cfg.Docs, cfg.Queries)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	corpus, err := trace.GenCorpus(rng, cfg.Docs, cfg.Vocab, cfg.MinTerms, cfg.MaxTerms)
	if err != nil {
		return nil, fmt.Errorf("websearch: generating corpus: %w", err)
	}
	qrng := rng
	if cfg.QuerySeed != 0 {
		qrng = rand.New(rand.NewSource(cfg.QuerySeed))
	}
	queries, err := trace.GenQueries(qrng, corpus, cfg.Queries, cfg.MaxQueryTerms)
	if err != nil {
		return nil, fmt.Errorf("websearch: generating queries: %w", err)
	}
	return &Builder{cfg: cfg, corpus: corpus, queries: queries}, nil
}

// AppName implements apps.Builder.
func (b *Builder) AppName() string { return "websearch" }

// Config returns the builder's configuration.
func (b *Builder) Config() Config { return b.cfg }

// App is one WebSearch instance.
type App struct {
	cfg     Config
	as      *simmem.AddressSpace
	private *simmem.Region
	heap    *simmem.Region
	stack   *simmem.Stack
	queries []trace.Query

	// Two access streams, one accessor each: the query loop touches its
	// stack frame and an index/heap address on every iteration, so a
	// single region cache would thrash on the alternation. Each stream
	// stays within one region for long runs, so each accessor's
	// one-entry cache hits almost always.
	frameAcc *simmem.Accessor
	dataAcc  *simmem.Accessor

	// Region-relative layout offsets (host-side metadata, analogous to
	// the program's immutable globals).
	numTerms    int
	numDocs     int
	postingsOff int
	docTableOff int
	privateUsed int
	snippetsOff int
	cacheOff    int

	// Snapshot state (apps.SnapshotApp): the memory capture plus the
	// only host-side mutable state, the stack depth. The layout offsets
	// above are immutable after Build.
	snap apps.Checkpoint
}

var _ apps.SnapshotApp = (*App)(nil)

// BuildSnapshot implements apps.SnapshotBuilder.
func (b *Builder) BuildSnapshot() (apps.SnapshotApp, error) {
	cfg := b.cfg
	// Serialize the inverted index.
	numTerms := cfg.Vocab
	postings := make(map[int][]trace.Document, numTerms) // term -> docs
	totalPostings := 0
	for _, d := range b.corpus.Docs {
		for _, t := range d.Terms {
			postings[int(t)] = append(postings[int(t)], d)
			totalPostings++
		}
	}
	termTableBytes := numTerms * termEntryBytes
	postingsBytes := totalPostings * postingBytes
	docTableBytes := cfg.Docs * docEntryBytes
	privateUsed := termTableBytes + postingsBytes + docTableBytes

	snippetsBytes := cfg.Docs * cfg.SnippetLen
	cacheBytes := cfg.CacheSlots * cacheEntryBytes
	heapUsed := snippetsBytes + cacheBytes

	as, err := simmem.New(simmem.Config{})
	if err != nil {
		return nil, fmt.Errorf("websearch: creating address space: %w", err)
	}
	private, err := as.AddRegion(simmem.RegionSpec{
		Name: "private", Kind: simmem.RegionPrivate, Size: privateUsed + 4096,
		ReadOnly: true, Backed: true, Codec: cfg.PrivateCodec, MC: cfg.PrivateMC,
	})
	if err != nil {
		return nil, fmt.Errorf("websearch: mapping private region: %w", err)
	}
	heap, err := as.AddRegion(simmem.RegionSpec{
		Name: "heap", Kind: simmem.RegionHeap, Size: heapUsed + 4096,
		Codec: cfg.HeapCodec, MC: cfg.HeapMC,
	})
	if err != nil {
		return nil, fmt.Errorf("websearch: mapping heap region: %w", err)
	}
	stackRegion, err := as.AddRegion(simmem.RegionSpec{
		Name: "stack", Kind: simmem.RegionStack, Size: 64 << 10,
		Codec: cfg.StackCodec, MC: cfg.StackMC,
	})
	if err != nil {
		return nil, fmt.Errorf("websearch: mapping stack region: %w", err)
	}

	// The request handler's frame is the stack's resident working set;
	// marking it used lets injection sample live stack bytes before the
	// first request runs (the paper samples the live process stack).
	stackRegion.SetUsed(frameBytes)

	app := &App{
		cfg:         cfg,
		as:          as,
		private:     private,
		heap:        heap,
		stack:       simmem.NewStack(stackRegion),
		queries:     b.queries,
		numTerms:    numTerms,
		numDocs:     cfg.Docs,
		postingsOff: termTableBytes,
		docTableOff: termTableBytes + postingsBytes,
		privateUsed: privateUsed,
		snippetsOff: 0,
		cacheOff:    snippetsBytes,
	}
	app.frameAcc = as.NewAccessor()
	app.dataAcc = as.NewAccessor()

	// Write the index via WriteRaw (the region is a read-only mapping;
	// this models the initial page-in from the index files on disk).
	buf := make([]byte, privateUsed)
	cursor := 0 // posting write cursor, relative to postingsOff
	for t := 0; t < numTerms; t++ {
		entry := t * termEntryBytes
		start := app.postingsOff + cursor
		docs := postings[t]
		putU32(buf[entry:], uint32(start))
		putU32(buf[entry+4:], uint32(len(docs)))
		for _, d := range docs {
			off := app.postingsOff + cursor
			putU32(buf[off:], d.ID)
			// Per-posting relevance weight derived from the doc's
			// popularity and term rank.
			w := float32(d.Popularity) * (1 + 1/float32(t+1))
			putU32(buf[off+4:], f32bits(w))
			cursor += postingBytes
		}
	}
	for i, d := range b.corpus.Docs {
		putU32(buf[app.docTableOff+i*docEntryBytes:], f32bits(float32(d.Popularity)))
	}
	if err := as.WriteRaw(private.Base(), buf); err != nil {
		return nil, fmt.Errorf("websearch: writing index: %w", err)
	}
	private.SetUsed(privateUsed)
	if err := private.FlushAll(); err != nil {
		return nil, fmt.Errorf("websearch: flushing index backing: %w", err)
	}

	// Populate the heap: snippets derived deterministically per doc;
	// the result cache starts zeroed (tag 0 is "empty" — query hashes
	// are forced nonzero).
	snip := make([]byte, heapUsed)
	for i := range b.corpus.Docs {
		copy(snip[i*cfg.SnippetLen:(i+1)*cfg.SnippetLen], trace.ValueFor(uint64(i), 7, cfg.SnippetLen))
	}
	if err := as.WriteRaw(heap.Base(), snip); err != nil {
		return nil, fmt.Errorf("websearch: writing heap: %w", err)
	}
	heap.SetUsed(heapUsed)
	return app, nil
}

// Build implements apps.Builder.
func (b *Builder) Build() (apps.App, error) { return b.BuildSnapshot() }

var _ apps.SnapshotBuilder = (*Builder)(nil)

// Snapshot implements apps.SnapshotApp.
func (a *App) Snapshot() error {
	a.snap.Capture(a.as, a.stack)
	return nil
}

// Reset implements apps.SnapshotApp.
func (a *App) Reset() (int, error) { return a.snap.Restore("websearch", a.stack) }

// Name implements apps.App.
func (a *App) Name() string { return "websearch" }

// Space implements apps.App.
func (a *App) Space() *simmem.AddressSpace { return a.as }

// NumRequests implements apps.App.
func (a *App) NumRequests() int { return len(a.queries) }

// Stack-frame layout (byte offsets within the frame).
const (
	frTerms     = 0        // 4 × u64 term IDs
	frCursor    = 32       // u64 posting byte cursor (region-relative)
	frEnd       = 40       // u64 posting end offset
	frTopIDs    = 48       // 4 × u64 doc IDs
	frTopScores = 80       // 4 × f64 scores
	frameBytes  = 112 + 16 // small slack, mirroring alignment padding
)

// queryHash returns a nonzero tag for the result cache.
func queryHash(q trace.Query) uint64 {
	d := apps.NewDigest()
	for _, t := range q.Terms {
		d.AddU32(t)
	}
	h := d.Sum()
	if h == 0 {
		h = 1
	}
	return h
}

// Serve implements apps.App. It executes the full index-search request
// path against simulated memory.
func (a *App) Serve(i int) (resp apps.Response, err error) {
	if i < 0 || i >= len(a.queries) {
		return apps.Response{}, fmt.Errorf("websearch: request %d out of range", i)
	}
	a.as.Clock().Advance(a.cfg.RequestCost)
	q := a.queries[i]
	budget := apps.NewBudget(a.cfg.OpBudget)

	frame, err := a.stack.Push(frameBytes)
	if err != nil {
		return apps.Response{}, fmt.Errorf("websearch: pushing frame: %w", err)
	}
	defer func() {
		// Popping our own frame cannot fail unless the app is buggy.
		if perr := a.stack.Pop(frame); perr != nil && err == nil {
			err = perr
		}
	}()

	resp, _, err = a.serveQuery(frame, q, budget)
	return resp, err
}

// DocScore is one ranked document of a query response.
type DocScore struct {
	// ID is the document identifier (unique within this server's
	// shard).
	ID uint32
	// Score is the final relevance score (relevance + popularity).
	Score float32
}

// ServeWithResults executes request i like Serve but also returns the
// ranked top documents, for multi-server result aggregation experiments.
func (a *App) ServeWithResults(i int) (resp apps.Response, results []DocScore, err error) {
	if i < 0 || i >= len(a.queries) {
		return apps.Response{}, nil, fmt.Errorf("websearch: request %d out of range", i)
	}
	a.as.Clock().Advance(a.cfg.RequestCost)
	q := a.queries[i]
	budget := apps.NewBudget(a.cfg.OpBudget)
	frame, err := a.stack.Push(frameBytes)
	if err != nil {
		return apps.Response{}, nil, fmt.Errorf("websearch: pushing frame: %w", err)
	}
	defer func() {
		if perr := a.stack.Pop(frame); perr != nil && err == nil {
			err = perr
		}
	}()
	return a.serveQuery(frame, q, budget)
}

// serveQuery is the request body; errors propagate as crash-worthy.
func (a *App) serveQuery(frame simmem.Frame, q trace.Query, budget *apps.Budget) (apps.Response, []DocScore, error) {
	fb := frame.Base

	// Write locals: query terms and an empty top-4.
	for j := 0; j < topK; j++ {
		term := uint64(0)
		if j < len(q.Terms) {
			term = uint64(q.Terms[j])
		}
		if err := a.frameAcc.StoreU64(fb+simmem.Addr(frTerms+8*j), term); err != nil {
			return apps.Response{}, nil, err
		}
		if err := a.frameAcc.StoreU64(fb+simmem.Addr(frTopIDs+8*j), noDoc); err != nil {
			return apps.Response{}, nil, err
		}
		if err := a.frameAcc.StoreF64(fb+simmem.Addr(frTopScores+8*j), -1e300); err != nil {
			return apps.Response{}, nil, err
		}
	}

	// Probe the result cache.
	tag := queryHash(q)
	slot := int(tag % uint64(a.cfg.CacheSlots))
	slotAddr := a.heap.Base() + simmem.Addr(a.cacheOff+slot*cacheEntryBytes)
	storedTag, err := a.dataAcc.LoadU64(slotAddr)
	if err != nil {
		return apps.Response{}, nil, err
	}
	if storedTag == tag {
		return a.respondFromCache(slotAddr, budget)
	}

	// Score postings term-at-a-time, keeping the top-4 in the frame.
	nTerms := len(q.Terms)
	if nTerms > topK {
		nTerms = topK
	}
	for j := 0; j < nTerms; j++ {
		// Read the term back from the stack local (round-tripping
		// locals through memory is what exposes the stack region).
		term, err := a.frameAcc.LoadU64(fb + simmem.Addr(frTerms+8*j))
		if err != nil {
			return apps.Response{}, nil, err
		}
		if term >= uint64(a.numTerms) {
			return apps.Response{}, nil, apps.Assertf("term %d out of range", term)
		}
		entryAddr := a.private.Base() + simmem.Addr(int(term)*termEntryBytes)
		start, err := a.dataAcc.LoadU32(entryAddr)
		if err != nil {
			return apps.Response{}, nil, err
		}
		count, err := a.dataAcc.LoadU32(entryAddr + 4)
		if err != nil {
			return apps.Response{}, nil, err
		}
		// Initialize the posting cursor locals. Note: no bounds check
		// on start/count — like the native code, a corrupted term
		// entry walks wherever it points, and the region guard gap or
		// the op budget catches it.
		if err := a.frameAcc.StoreU64(fb+simmem.Addr(frCursor), uint64(start)); err != nil {
			return apps.Response{}, nil, err
		}
		if err := a.frameAcc.StoreU64(fb+simmem.Addr(frEnd), uint64(start)+uint64(count)*postingBytes); err != nil {
			return apps.Response{}, nil, err
		}
		for {
			if err := budget.Spend(1); err != nil {
				return apps.Response{}, nil, err
			}
			cursor, err := a.frameAcc.LoadU64(fb + simmem.Addr(frCursor))
			if err != nil {
				return apps.Response{}, nil, err
			}
			end, err := a.frameAcc.LoadU64(fb + simmem.Addr(frEnd))
			if err != nil {
				return apps.Response{}, nil, err
			}
			if cursor >= end {
				break
			}
			pAddr := a.private.Base() + simmem.Addr(cursor)
			docID, err := a.dataAcc.LoadU32(pAddr)
			if err != nil {
				return apps.Response{}, nil, err
			}
			wbits, err := a.dataAcc.LoadU32(pAddr + 4)
			if err != nil {
				return apps.Response{}, nil, err
			}
			score := float64(f32from(wbits))
			if err := a.insertTop(fb, uint64(docID), score, budget); err != nil {
				return apps.Response{}, nil, err
			}
			if err := a.frameAcc.StoreU64(fb+simmem.Addr(frCursor), cursor+postingBytes); err != nil {
				return apps.Response{}, nil, err
			}
		}
	}

	// Assemble the response: re-rank the top-4 with popularity, read
	// snippets, fill the cache.
	d := apps.NewDigest()
	var results []DocScore
	var cacheBuf [cacheEntryBytes]byte
	putU64(cacheBuf[0:], tag)
	for j := 0; j < topK; j++ {
		id, err := a.frameAcc.LoadU64(fb + simmem.Addr(frTopIDs+8*j))
		if err != nil {
			return apps.Response{}, nil, err
		}
		base, err := a.frameAcc.LoadF64(fb + simmem.Addr(frTopScores+8*j))
		if err != nil {
			return apps.Response{}, nil, err
		}
		if id == noDoc {
			putU32(cacheBuf[8+8*j:], 0xffffffff)
			putU32(cacheBuf[12+8*j:], 0)
			d.AddU64(noDoc)
			continue
		}
		popAddr := a.private.Base() + simmem.Addr(a.docTableOff+int(id)*docEntryBytes)
		popBits, err := a.dataAcc.LoadU32(popAddr)
		if err != nil {
			return apps.Response{}, nil, err
		}
		final := base + float64(f32from(popBits))
		snippet := make([]byte, a.cfg.SnippetLen)
		snipAddr := a.heap.Base() + simmem.Addr(a.snippetsOff+int(id)*a.cfg.SnippetLen)
		if err := a.dataAcc.Load(snipAddr, snippet); err != nil {
			return apps.Response{}, nil, err
		}
		d.AddU64(id)
		d.AddU32(quantize(final))
		d.AddBytes(snippet)
		putU32(cacheBuf[8+8*j:], uint32(id))
		putU32(cacheBuf[12+8*j:], f32bits(float32(final)))
		results = append(results, DocScore{ID: uint32(id), Score: float32(final)})
	}
	if err := a.dataAcc.Store(slotAddr, cacheBuf[:]); err != nil {
		return apps.Response{}, nil, err
	}
	return d.Response(), results, nil
}

// respondFromCache serves a query straight from the heap result cache.
func (a *App) respondFromCache(slotAddr simmem.Addr, budget *apps.Budget) (apps.Response, []DocScore, error) {
	d := apps.NewDigest()
	var results []DocScore
	for j := 0; j < topK; j++ {
		if err := budget.Spend(1); err != nil {
			return apps.Response{}, nil, err
		}
		id, err := a.dataAcc.LoadU32(slotAddr + simmem.Addr(8+8*j))
		if err != nil {
			return apps.Response{}, nil, err
		}
		scoreBits, err := a.dataAcc.LoadU32(slotAddr + simmem.Addr(12+8*j))
		if err != nil {
			return apps.Response{}, nil, err
		}
		if id == 0xffffffff {
			d.AddU64(noDoc)
			continue
		}
		// Cached responses still fetch the snippet (the cache stores
		// ids and scores only).
		if uint64(id) >= uint64(a.numDocs) {
			return apps.Response{}, nil, apps.Assertf("cached doc %d out of range", id)
		}
		snippet := make([]byte, a.cfg.SnippetLen)
		snipAddr := a.heap.Base() + simmem.Addr(a.snippetsOff+int(id)*a.cfg.SnippetLen)
		if err := a.dataAcc.Load(snipAddr, snippet); err != nil {
			return apps.Response{}, nil, err
		}
		d.AddU64(uint64(id))
		d.AddU32(quantize(float64(f32from(scoreBits))))
		d.AddBytes(snippet)
		results = append(results, DocScore{ID: id, Score: f32from(scoreBits)})
	}
	return d.Response(), results, nil
}

// noDoc marks an empty top-4 slot.
const noDoc = ^uint64(0)

// insertTop maintains the descending top-4 (ids and scores) in the frame.
func (a *App) insertTop(fb simmem.Addr, id uint64, score float64, budget *apps.Budget) error {
	for j := 0; j < topK; j++ {
		if err := budget.Spend(1); err != nil {
			return err
		}
		cur, err := a.frameAcc.LoadF64(fb + simmem.Addr(frTopScores+8*j))
		if err != nil {
			return err
		}
		curID, err := a.frameAcc.LoadU64(fb + simmem.Addr(frTopIDs+8*j))
		if err != nil {
			return err
		}
		if curID == id {
			// Already ranked (multi-term hit): keep the higher score.
			if score > cur {
				return a.frameAcc.StoreF64(fb+simmem.Addr(frTopScores+8*j), score)
			}
			return nil
		}
		if score > cur {
			// Shift the tail down and insert.
			for k := topK - 1; k > j; k-- {
				pid, err := a.frameAcc.LoadU64(fb + simmem.Addr(frTopIDs+8*(k-1)))
				if err != nil {
					return err
				}
				ps, err := a.frameAcc.LoadF64(fb + simmem.Addr(frTopScores+8*(k-1)))
				if err != nil {
					return err
				}
				if err := a.frameAcc.StoreU64(fb+simmem.Addr(frTopIDs+8*k), pid); err != nil {
					return err
				}
				if err := a.frameAcc.StoreF64(fb+simmem.Addr(frTopScores+8*k), ps); err != nil {
					return err
				}
			}
			if err := a.frameAcc.StoreU64(fb+simmem.Addr(frTopIDs+8*j), id); err != nil {
				return err
			}
			return a.frameAcc.StoreF64(fb+simmem.Addr(frTopScores+8*j), score)
		}
	}
	return nil
}

// quantize rounds a score for digesting, so sub-ULP float noise does not
// count as an incorrect result.
func quantize(s float64) uint32 {
	return uint32(int32(s * 1024))
}

// Little-endian helpers over plain byte slices (host-side serialization).

func putU32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

func putU64(b []byte, v uint64) {
	putU32(b, uint32(v))
	putU32(b[4:], uint32(v>>32))
}

func f32bits(f float32) uint32 { return math.Float32bits(f) }
func f32from(u uint32) float32 { return math.Float32frombits(u) }
