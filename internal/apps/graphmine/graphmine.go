// Package graphmine implements a GraphLab-style graph-mining framework on
// simulated memory — the third workload of the paper's case study. Like
// GraphLab it separates the engine (CSR traversal, double-buffered
// scores, chunked scheduling) from the vertex program: TunkRank (the
// paper's Twitter-influence workload) and PageRank are provided.
//
// The whole dataset lives in the heap region as a compressed sparse row
// (CSR) structure over in-edges plus per-node out-degrees and two score
// buffers (current and next iteration). Each request processes one chunk
// of nodes for one iteration; the final request ranks the 100 most
// influential users, which is the output the paper compares against the
// golden run.
//
// TunkRank update: influence(u) = Σ over followers v of u of
// (1 + p·influence(v)) / outdeg(v).
//
// Heap layout (region-relative):
//
//	[offsets:  (N+1) × u32]  CSR row starts into the followers array
//	[followers: E × u32]     follower node IDs (in-edges)
//	[outdeg:   N × u32]
//	[scoreA:   N × f64]
//	[scoreB:   N × f64]
package graphmine

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"hrmsim/internal/apps"
	"hrmsim/internal/simmem"
	"hrmsim/internal/trace"
)

// Algorithm selects the vertex program the framework runs — like
// GraphLab, the engine (CSR traversal, double-buffered scores, chunked
// scheduling) is independent of the update rule.
type Algorithm int

// Vertex programs.
const (
	// TunkRank computes Twitter influence:
	//   I(u) = Σ_{v follows u} (1 + p·I(v)) / outdeg(v).
	TunkRank Algorithm = iota
	// PageRank computes the classic damped random-surfer rank:
	//   R(u) = (1−d)/N + d · Σ_{v→u} R(v) / outdeg(v).
	PageRank
)

// String returns the algorithm name.
func (a Algorithm) String() string {
	switch a {
	case TunkRank:
		return "tunkrank"
	case PageRank:
		return "pagerank"
	default:
		return fmt.Sprintf("algorithm(%d)", int(a))
	}
}

// Config parameterizes a graphmine build.
type Config struct {
	// Seed drives graph generation.
	Seed int64
	// Nodes is the user count.
	Nodes int
	// AvgDeg is the mean out-degree.
	AvgDeg int
	// Algorithm is the vertex program (default TunkRank, the paper's
	// workload).
	Algorithm Algorithm
	// Iterations is the number of TunkRank sweeps.
	Iterations int
	// ChunkNodes is the number of nodes one request processes.
	ChunkNodes int
	// Damping is the retweet probability p in the TunkRank update.
	Damping float64
	// TopK is the influencer list length compared as output (the paper
	// uses 100).
	TopK int
	// RequestCost advances the virtual clock per request.
	RequestCost time.Duration
	// OpBudget caps simulated memory operations per request.
	OpBudget int
	// HeapCodec / StackCodec optionally protect regions.
	HeapCodec, StackCodec simmem.Codec
	// HeapMC / StackMC install software responses.
	HeapMC, StackMC simmem.MCHandler
}

// DefaultConfig returns a laptop-scale configuration.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:        seed,
		Nodes:       2048,
		AvgDeg:      8,
		Iterations:  4,
		ChunkNodes:  512,
		Damping:     0.5,
		TopK:        100,
		RequestCost: 50 * time.Millisecond,
		OpBudget:    2_000_000,
	}
}

// SizedConfig is DefaultConfig at a campaign workload size, with requests
// spread over ~20 virtual minutes at SizeMedium. SizeLarge is
// DefaultConfig's own geometry.
func SizedConfig(size apps.Size, seed int64) (Config, error) {
	cfg := DefaultConfig(seed)
	cfg.RequestCost = 90 * time.Second
	switch size {
	case apps.SizeSmall:
		cfg.Nodes, cfg.AvgDeg, cfg.Iterations, cfg.ChunkNodes, cfg.TopK = 256, 4, 2, 64, 20
	case apps.SizeMedium:
		cfg.Nodes, cfg.AvgDeg, cfg.Iterations, cfg.ChunkNodes, cfg.TopK = 512, 6, 3, 128, 50
	case apps.SizeLarge:
	default:
		return cfg, fmt.Errorf("graphmine: unknown workload size %d", size)
	}
	return cfg, nil
}

// Builder pre-generates the graph; Build serializes it per trial.
type Builder struct {
	cfg       Config
	followers [][]int32 // in-adjacency: followers[u] lists v that follow u
	outdeg    []uint32
	edges     int
}

// NewBuilder generates the synthetic follower graph.
func NewBuilder(cfg Config) (*Builder, error) {
	switch {
	case cfg.Nodes <= 1, cfg.AvgDeg <= 0:
		return nil, fmt.Errorf("graphmine: need nodes > 1 (%d) and degree > 0 (%d)", cfg.Nodes, cfg.AvgDeg)
	case cfg.Iterations <= 0, cfg.ChunkNodes <= 0:
		return nil, fmt.Errorf("graphmine: need positive iterations (%d) and chunk (%d)", cfg.Iterations, cfg.ChunkNodes)
	case cfg.TopK <= 0 || cfg.TopK > cfg.Nodes:
		return nil, fmt.Errorf("graphmine: topK %d outside [1,%d]", cfg.TopK, cfg.Nodes)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g, err := trace.GenGraph(rng, cfg.Nodes, cfg.AvgDeg)
	if err != nil {
		return nil, fmt.Errorf("graphmine: generating graph: %w", err)
	}
	b := &Builder{
		cfg:       cfg,
		followers: make([][]int32, cfg.Nodes),
		outdeg:    make([]uint32, cfg.Nodes),
	}
	for u, out := range g.Out {
		b.outdeg[u] = uint32(len(out))
		for _, v := range out {
			b.followers[v] = append(b.followers[v], int32(u))
			b.edges++
		}
	}
	return b, nil
}

// AppName implements apps.Builder.
func (b *Builder) AppName() string { return "graphmine" }

// Config returns the builder's configuration.
func (b *Builder) Config() Config { return b.cfg }

// App is one graphmine instance.
type App struct {
	cfg    Config
	as     *simmem.AddressSpace
	heap   *simmem.Region
	stack  *simmem.Stack
	chunks int // chunks per iteration

	// Two access streams, one accessor each: the edge loop alternates
	// between the stack-frame accumulator and heap graph data on every
	// edge, so a single one-entry region cache would thrash on the
	// alternation (see simmem.Accessor).
	frameAcc *simmem.Accessor
	dataAcc  *simmem.Accessor

	// Layout offsets (region-relative).
	offsetsOff   int
	followersOff int
	outdegOff    int
	scoreAOff    int
	scoreBOff    int

	// Snapshot state (apps.SnapshotApp): memory capture plus stack
	// depth — the layout offsets above are immutable after Build.
	snap apps.Checkpoint
}

var _ apps.SnapshotApp = (*App)(nil)

// Build implements apps.Builder.
func (b *Builder) Build() (apps.App, error) { return b.BuildSnapshot() }

var _ apps.SnapshotBuilder = (*Builder)(nil)

// Snapshot implements apps.SnapshotApp.
func (a *App) Snapshot() error {
	a.snap.Capture(a.as, a.stack)
	return nil
}

// Reset implements apps.SnapshotApp.
func (a *App) Reset() (int, error) { return a.snap.Restore("graphmine", a.stack) }

// BuildSnapshot implements apps.SnapshotBuilder.
func (b *Builder) BuildSnapshot() (apps.SnapshotApp, error) {
	cfg := b.cfg
	n := cfg.Nodes
	offsetsBytes := (n + 1) * 4
	followersBytes := b.edges * 4
	outdegBytes := n * 4
	scoresBytes := n * 8
	used := offsetsBytes + followersBytes + outdegBytes + 2*scoresBytes

	as, err := simmem.New(simmem.Config{})
	if err != nil {
		return nil, fmt.Errorf("graphmine: creating address space: %w", err)
	}
	heap, err := as.AddRegion(simmem.RegionSpec{
		Name: "heap", Kind: simmem.RegionHeap, Size: used + 4096,
		Codec: cfg.HeapCodec, MC: cfg.HeapMC,
	})
	if err != nil {
		return nil, fmt.Errorf("graphmine: mapping heap: %w", err)
	}
	stackRegion, err := as.AddRegion(simmem.RegionSpec{
		Name: "stack", Kind: simmem.RegionStack, Size: 16 << 10,
		Codec: cfg.StackCodec, MC: cfg.StackMC,
	})
	if err != nil {
		return nil, fmt.Errorf("graphmine: mapping stack: %w", err)
	}

	// Mark the request handler's frame bytes as live stack (see the
	// equivalent note in websearch).
	stackRegion.SetUsed(frameBytes)

	app := &App{
		cfg:          cfg,
		as:           as,
		heap:         heap,
		stack:        simmem.NewStack(stackRegion),
		chunks:       (n + cfg.ChunkNodes - 1) / cfg.ChunkNodes,
		offsetsOff:   0,
		followersOff: offsetsBytes,
		outdegOff:    offsetsBytes + followersBytes,
		scoreAOff:    offsetsBytes + followersBytes + outdegBytes,
		scoreBOff:    offsetsBytes + followersBytes + outdegBytes + scoresBytes,
	}
	app.frameAcc = as.NewAccessor()
	app.dataAcc = as.NewAccessor()

	buf := make([]byte, used)
	cursor := 0
	for u := 0; u <= n; u++ {
		putU32(buf[u*4:], uint32(app.followersOff+cursor*4))
		if u < n {
			cursor += len(b.followers[u])
		}
	}
	w := app.followersOff
	for u := 0; u < n; u++ {
		for _, v := range b.followers[u] {
			putU32(buf[w:], uint32(v))
			w += 4
		}
	}
	initScore := 1.0 // TunkRank starts every user at unit influence
	if cfg.Algorithm == PageRank {
		initScore = 1.0 / float64(n)
	}
	for u := 0; u < n; u++ {
		putU32(buf[app.outdegOff+u*4:], b.outdeg[u])
		putU64(buf[app.scoreAOff+u*8:], f64bits(initScore))
		putU64(buf[app.scoreBOff+u*8:], f64bits(0))
	}
	if err := as.WriteRaw(heap.Base(), buf); err != nil {
		return nil, fmt.Errorf("graphmine: writing graph: %w", err)
	}
	heap.SetUsed(used)
	return app, nil
}

// Name implements apps.App.
func (a *App) Name() string { return "graphmine" }

// Space implements apps.App.
func (a *App) Space() *simmem.AddressSpace { return a.as }

// NumRequests implements apps.App: one request per (iteration, chunk),
// plus the final top-K ranking request.
func (a *App) NumRequests() int { return a.cfg.Iterations*a.chunks + 1 }

// Stack-frame layout.
const (
	frNode     = 0  // u64 current node
	frEdge     = 8  // u64 current follower-array byte offset
	frEdgeEnd  = 16 // u64 end offset
	frAcc      = 24 // f64 influence accumulator
	frameBytes = 48
)

// Serve implements apps.App.
func (a *App) Serve(i int) (resp apps.Response, err error) {
	if i < 0 || i >= a.NumRequests() {
		return apps.Response{}, fmt.Errorf("graphmine: request %d out of range", i)
	}
	a.as.Clock().Advance(a.cfg.RequestCost)
	budget := apps.NewBudget(a.cfg.OpBudget)
	if i == a.NumRequests()-1 {
		return a.rankTop(budget)
	}

	iter := i / a.chunks
	chunk := i % a.chunks
	// Even iterations read A and write B; odd iterations the reverse.
	srcOff, dstOff := a.scoreAOff, a.scoreBOff
	if iter%2 == 1 {
		srcOff, dstOff = a.scoreBOff, a.scoreAOff
	}

	frame, err := a.stack.Push(frameBytes)
	if err != nil {
		return apps.Response{}, fmt.Errorf("graphmine: pushing frame: %w", err)
	}
	defer func() {
		if perr := a.stack.Pop(frame); perr != nil && err == nil {
			err = perr
		}
	}()

	fb := frame.Base
	first := chunk * a.cfg.ChunkNodes
	last := first + a.cfg.ChunkNodes
	if last > a.cfg.Nodes {
		last = a.cfg.Nodes
	}
	for u := first; u < last; u++ {
		if err := a.frameAcc.StoreU64(fb+frNode, uint64(u)); err != nil {
			return apps.Response{}, err
		}
		// Row bounds from the CSR offsets array.
		rowStart, err := a.dataAcc.LoadU32(a.heap.Base() + simmem.Addr(a.offsetsOff+u*4))
		if err != nil {
			return apps.Response{}, err
		}
		rowEnd, err := a.dataAcc.LoadU32(a.heap.Base() + simmem.Addr(a.offsetsOff+(u+1)*4))
		if err != nil {
			return apps.Response{}, err
		}
		if err := a.frameAcc.StoreU64(fb+frEdge, uint64(rowStart)); err != nil {
			return apps.Response{}, err
		}
		if err := a.frameAcc.StoreU64(fb+frEdgeEnd, uint64(rowEnd)); err != nil {
			return apps.Response{}, err
		}
		if err := a.frameAcc.StoreF64(fb+frAcc, 0); err != nil {
			return apps.Response{}, err
		}
		for {
			if err := budget.Spend(1); err != nil {
				return apps.Response{}, err
			}
			e, err := a.frameAcc.LoadU64(fb + frEdge)
			if err != nil {
				return apps.Response{}, err
			}
			eEnd, err := a.frameAcc.LoadU64(fb + frEdgeEnd)
			if err != nil {
				return apps.Response{}, err
			}
			if e >= eEnd {
				break
			}
			v, err := a.dataAcc.LoadU32(a.heap.Base() + simmem.Addr(e))
			if err != nil {
				return apps.Response{}, err
			}
			// Follower influence and out-degree; a corrupted follower
			// ID indexes wherever it points (wrong data or a fault).
			inf, err := a.dataAcc.LoadF64(a.heap.Base() + simmem.Addr(srcOff+int(v)*8))
			if err != nil {
				return apps.Response{}, err
			}
			deg, err := a.dataAcc.LoadU32(a.heap.Base() + simmem.Addr(a.outdegOff+int(v)*4))
			if err != nil {
				return apps.Response{}, err
			}
			acc, err := a.frameAcc.LoadF64(fb + frAcc)
			if err != nil {
				return apps.Response{}, err
			}
			contrib := 0.0
			if deg != 0 {
				switch a.cfg.Algorithm {
				case PageRank:
					contrib = inf / float64(deg)
				default: // TunkRank
					contrib = (1 + a.cfg.Damping*inf) / float64(deg)
				}
			}
			if err := a.frameAcc.StoreF64(fb+frAcc, acc+contrib); err != nil {
				return apps.Response{}, err
			}
			if err := a.frameAcc.StoreU64(fb+frEdge, e+4); err != nil {
				return apps.Response{}, err
			}
		}
		acc, err := a.frameAcc.LoadF64(fb + frAcc)
		if err != nil {
			return apps.Response{}, err
		}
		node, err := a.frameAcc.LoadU64(fb + frNode)
		if err != nil {
			return apps.Response{}, err
		}
		if node >= uint64(a.cfg.Nodes) {
			return apps.Response{}, apps.Assertf("node %d out of range", node)
		}
		score := acc
		if a.cfg.Algorithm == PageRank {
			score = (1-a.cfg.Damping)/float64(a.cfg.Nodes) + a.cfg.Damping*acc
		}
		if err := a.dataAcc.StoreF64(a.heap.Base()+simmem.Addr(dstOff+int(node)*8), score); err != nil {
			return apps.Response{}, err
		}
	}
	// Intermediate requests have no client-visible output.
	return apps.Response{}, nil
}

// rankTop produces the final top-K influencer list.
func (a *App) rankTop(budget *apps.Budget) (apps.Response, error) {
	srcOff := a.scoreAOff
	if a.cfg.Iterations%2 == 1 {
		srcOff = a.scoreBOff
	}
	type scored struct {
		node  int
		score float64
	}
	all := make([]scored, a.cfg.Nodes)
	for u := 0; u < a.cfg.Nodes; u++ {
		if err := budget.Spend(1); err != nil {
			return apps.Response{}, err
		}
		s, err := a.dataAcc.LoadF64(a.heap.Base() + simmem.Addr(srcOff+u*8))
		if err != nil {
			return apps.Response{}, err
		}
		all[u] = scored{node: u, score: s}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].score != all[j].score {
			return all[i].score > all[j].score
		}
		return all[i].node < all[j].node
	})
	d := apps.NewDigest()
	for k := 0; k < a.cfg.TopK; k++ {
		d.AddU64(uint64(all[k].node))
		d.AddU32(quantize(all[k].score))
	}
	return d.Response(), nil
}

// quantize rounds a score for digesting so sub-ULP float noise does not
// count as incorrect output.
func quantize(s float64) uint32 {
	return uint32(int32(s * 1024))
}

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

func f64bits(f float64) uint64 { return math.Float64bits(f) }
