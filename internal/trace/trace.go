// Package trace generates the synthetic workloads that stand in for the
// paper's proprietary inputs: a document corpus and query stream for the
// web search application (the paper used a production index and a 200,000
// query trace), a skewed read/write key–value request mix (the paper used
// a 30 GB Twitter dataset with 90% reads), and a power-law follower graph
// for the graph-mining workload (the paper used an 11M-user Twitter
// follow graph).
//
// All generators are deterministic given a seed.
package trace

import (
	"fmt"
	"math/rand"
)

// Corpus is a synthetic document collection for the search workload.
type Corpus struct {
	// Docs holds every document.
	Docs []Document
	// VocabSize is the number of distinct terms (term IDs are
	// 0..VocabSize-1, with lower IDs more frequent).
	VocabSize int
}

// Document is one synthetic document.
type Document struct {
	// ID is the document identifier.
	ID uint32
	// Terms are the distinct term IDs the document contains.
	Terms []uint32
	// Popularity is a static quality score used in ranking, in (0, 1].
	Popularity float64
}

// GenCorpus builds a corpus of n documents over a Zipf-distributed
// vocabulary of vocab terms; each document contains between minTerms and
// maxTerms distinct terms.
func GenCorpus(rng *rand.Rand, n, vocab, minTerms, maxTerms int) (*Corpus, error) {
	switch {
	case n <= 0 || vocab <= 1:
		return nil, fmt.Errorf("trace: need positive docs (%d) and vocab > 1 (%d)", n, vocab)
	case minTerms <= 0 || maxTerms < minTerms:
		return nil, fmt.Errorf("trace: invalid term range [%d,%d]", minTerms, maxTerms)
	case maxTerms > vocab:
		return nil, fmt.Errorf("trace: maxTerms %d exceeds vocabulary %d", maxTerms, vocab)
	}
	z := rand.NewZipf(rng, 1.2, 1, uint64(vocab-1))
	c := &Corpus{Docs: make([]Document, n), VocabSize: vocab}
	for i := range c.Docs {
		k := minTerms + rng.Intn(maxTerms-minTerms+1)
		seen := make(map[uint32]bool, k)
		terms := make([]uint32, 0, k)
		for len(terms) < k {
			t := uint32(z.Uint64())
			if !seen[t] {
				seen[t] = true
				terms = append(terms, t)
			}
		}
		c.Docs[i] = Document{
			ID:         uint32(i),
			Terms:      terms,
			Popularity: 0.05 + 0.95*rng.Float64(),
		}
	}
	return c, nil
}

// Query is one search request.
type Query struct {
	Terms []uint32
}

// GenQueries draws n queries of 1..maxTerms Zipf-distributed terms over
// the corpus vocabulary, mimicking a production query trace's skew.
func GenQueries(rng *rand.Rand, c *Corpus, n, maxTerms int) ([]Query, error) {
	if n <= 0 || maxTerms <= 0 {
		return nil, fmt.Errorf("trace: need positive query count (%d) and terms (%d)", n, maxTerms)
	}
	z := rand.NewZipf(rng, 1.2, 1, uint64(c.VocabSize-1))
	out := make([]Query, n)
	for i := range out {
		k := 1 + rng.Intn(maxTerms)
		terms := make([]uint32, k)
		for j := range terms {
			terms[j] = uint32(z.Uint64())
		}
		out[i] = Query{Terms: terms}
	}
	return out, nil
}

// KVOp is one key–value store request.
type KVOp struct {
	// Key is the request key.
	Key uint64
	// Read is true for GET, false for SET.
	Read bool
	// Version increments per SET of a key, letting the verifier compute
	// the expected value of any key at any point deterministically.
	Version uint32
}

// GenKVOps draws n operations over numKeys Zipf-distributed keys with the
// given read fraction (the paper's Memcached workload uses 90% reads /
// 10% writes). Version numbers count the SETs to each key so far.
func GenKVOps(rng *rand.Rand, numKeys, n int, readFraction float64) ([]KVOp, error) {
	switch {
	case numKeys <= 1 || n <= 0:
		return nil, fmt.Errorf("trace: need keys > 1 (%d) and positive ops (%d)", numKeys, n)
	case readFraction < 0 || readFraction > 1:
		return nil, fmt.Errorf("trace: read fraction %g outside [0,1]", readFraction)
	}
	z := rand.NewZipf(rng, 1.1, 1, uint64(numKeys-1))
	versions := make(map[uint64]uint32, numKeys)
	out := make([]KVOp, n)
	for i := range out {
		key := z.Uint64()
		read := rng.Float64() < readFraction
		if !read {
			versions[key]++
		}
		out[i] = KVOp{Key: key, Read: read, Version: versions[key]}
	}
	return out, nil
}

// ValueFor deterministically derives the value bytes for a key at a given
// version, so expected outputs need no stored oracle.
func ValueFor(key uint64, version uint32, size int) []byte {
	out := make([]byte, size)
	x := key*0x9E3779B97F4A7C15 + uint64(version)*0xBF58476D1CE4E5B9 + 0x94D049BB133111EB
	for i := range out {
		// xorshift-style mixing.
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		out[i] = byte(x)
	}
	return out
}

// Graph is a directed follower graph in adjacency-list form: Out[u] lists
// the users that u follows.
type Graph struct {
	N   int
	Out [][]int32
}

// GenGraph builds an n-node graph with roughly avgDeg out-edges per node.
// Edge targets are Zipf-distributed toward low node IDs, giving the heavy-
// tailed in-degree (influencer) structure of a social follow graph.
func GenGraph(rng *rand.Rand, n, avgDeg int) (*Graph, error) {
	if n <= 1 || avgDeg <= 0 {
		return nil, fmt.Errorf("trace: need nodes > 1 (%d) and positive degree (%d)", n, avgDeg)
	}
	z := rand.NewZipf(rng, 1.3, 4, uint64(n-1))
	g := &Graph{N: n, Out: make([][]int32, n)}
	for u := 0; u < n; u++ {
		deg := 1 + rng.Intn(2*avgDeg)
		seen := make(map[int32]bool, deg)
		edges := make([]int32, 0, deg)
		for attempts := 0; len(edges) < deg && attempts < 4*deg+16; attempts++ {
			v := int32(z.Uint64())
			if int(v) == u || seen[v] {
				continue
			}
			seen[v] = true
			edges = append(edges, v)
		}
		g.Out[u] = edges
	}
	return g, nil
}
