package trace

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
)

func TestGenCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c, err := GenCorpus(rng, 500, 1000, 3, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Docs) != 500 || c.VocabSize != 1000 {
		t.Fatalf("corpus shape: %d docs, vocab %d", len(c.Docs), c.VocabSize)
	}
	for i, d := range c.Docs {
		if d.ID != uint32(i) {
			t.Fatalf("doc %d has ID %d", i, d.ID)
		}
		if len(d.Terms) < 3 || len(d.Terms) > 20 {
			t.Fatalf("doc %d has %d terms", i, len(d.Terms))
		}
		seen := map[uint32]bool{}
		for _, term := range d.Terms {
			if term >= 1000 {
				t.Fatalf("doc %d term %d outside vocabulary", i, term)
			}
			if seen[term] {
				t.Fatalf("doc %d has duplicate term %d", i, term)
			}
			seen[term] = true
		}
		if d.Popularity <= 0 || d.Popularity > 1 {
			t.Fatalf("doc %d popularity %g outside (0,1]", i, d.Popularity)
		}
	}
}

func TestGenCorpusSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c, err := GenCorpus(rng, 2000, 500, 5, 15)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 500)
	for _, d := range c.Docs {
		for _, term := range d.Terms {
			counts[term]++
		}
	}
	// Zipf skew: the most common tenth of terms should dominate.
	sorted := append([]int(nil), counts...)
	sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
	top, total := 0, 0
	for i, n := range sorted {
		total += n
		if i < 50 {
			top += n
		}
	}
	if float64(top)/float64(total) < 0.5 {
		t.Errorf("top-10%% terms carry only %.1f%% of occurrences, expected Zipf skew",
			100*float64(top)/float64(total))
	}
}

func TestGenCorpusValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cases := []struct{ n, vocab, min, max int }{
		{0, 10, 1, 2}, {10, 1, 1, 2}, {10, 10, 0, 2}, {10, 10, 5, 2}, {10, 10, 1, 11},
	}
	for i, c := range cases {
		if _, err := GenCorpus(rng, c.n, c.vocab, c.min, c.max); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestGenQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c, err := GenCorpus(rng, 100, 200, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := GenQueries(rng, c, 300, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 300 {
		t.Fatalf("got %d queries", len(qs))
	}
	for _, q := range qs {
		if len(q.Terms) < 1 || len(q.Terms) > 4 {
			t.Fatalf("query with %d terms", len(q.Terms))
		}
		for _, term := range q.Terms {
			if term >= 200 {
				t.Fatalf("query term %d outside vocabulary", term)
			}
		}
	}
	if _, err := GenQueries(rng, c, 0, 4); err == nil {
		t.Error("zero queries accepted")
	}
	if _, err := GenQueries(rng, c, 5, 0); err == nil {
		t.Error("zero max terms accepted")
	}
}

func TestGenKVOps(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ops, err := GenKVOps(rng, 1000, 10000, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 10000 {
		t.Fatalf("got %d ops", len(ops))
	}
	reads := 0
	versions := map[uint64]uint32{}
	for i, op := range ops {
		if op.Key >= 1000 {
			t.Fatalf("op %d key %d out of range", i, op.Key)
		}
		if op.Read {
			reads++
			if op.Version != versions[op.Key] {
				t.Fatalf("op %d read version %d, want %d", i, op.Version, versions[op.Key])
			}
		} else {
			versions[op.Key]++
			if op.Version != versions[op.Key] {
				t.Fatalf("op %d write version %d, want %d", i, op.Version, versions[op.Key])
			}
		}
	}
	frac := float64(reads) / float64(len(ops))
	if frac < 0.87 || frac > 0.93 {
		t.Errorf("read fraction = %.3f, want about 0.9", frac)
	}
}

func TestGenKVOpsValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	if _, err := GenKVOps(rng, 1, 10, 0.5); err == nil {
		t.Error("single key accepted")
	}
	if _, err := GenKVOps(rng, 10, 0, 0.5); err == nil {
		t.Error("zero ops accepted")
	}
	if _, err := GenKVOps(rng, 10, 10, 1.5); err == nil {
		t.Error("bad read fraction accepted")
	}
}

func TestValueForDeterministicAndDistinct(t *testing.T) {
	a := ValueFor(42, 1, 64)
	b := ValueFor(42, 1, 64)
	if !bytes.Equal(a, b) {
		t.Error("ValueFor not deterministic")
	}
	if bytes.Equal(a, ValueFor(42, 2, 64)) {
		t.Error("versions collide")
	}
	if bytes.Equal(a, ValueFor(43, 1, 64)) {
		t.Error("keys collide")
	}
	if len(ValueFor(1, 0, 17)) != 17 {
		t.Error("wrong value size")
	}
	// Values should not be trivially zero.
	var zeros int
	for _, x := range a {
		if x == 0 {
			zeros++
		}
	}
	if zeros > 16 {
		t.Errorf("value suspiciously sparse: %d/64 zero bytes", zeros)
	}
}

func TestGenGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g, err := GenGraph(rng, 2000, 8)
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 2000 || len(g.Out) != 2000 {
		t.Fatalf("graph shape: N=%d", g.N)
	}
	edges, in := 0, make([]int, g.N)
	for u, out := range g.Out {
		seen := map[int32]bool{}
		for _, v := range out {
			if int(v) == u {
				t.Fatalf("self loop at %d", u)
			}
			if v < 0 || int(v) >= g.N {
				t.Fatalf("edge target %d out of range", v)
			}
			if seen[v] {
				t.Fatalf("duplicate edge %d->%d", u, v)
			}
			seen[v] = true
			edges++
			in[v]++
		}
	}
	if edges < 2000 {
		t.Errorf("suspiciously few edges: %d", edges)
	}

	// Heavy-tailed in-degree: the max in-degree should far exceed the mean.
	maxIn, sum := 0, 0
	for _, d := range in {
		sum += d
		if d > maxIn {
			maxIn = d
		}
	}
	mean := float64(sum) / float64(len(in))
	if float64(maxIn) < 5*mean {
		t.Errorf("max in-degree %d vs mean %.1f: no influencer skew", maxIn, mean)
	}
}

func TestGenGraphValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	if _, err := GenGraph(rng, 1, 4); err == nil {
		t.Error("single node accepted")
	}
	if _, err := GenGraph(rng, 10, 0); err == nil {
		t.Error("zero degree accepted")
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	c1, err := GenCorpus(rand.New(rand.NewSource(9)), 50, 100, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := GenCorpus(rand.New(rand.NewSource(9)), 50, 100, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range c1.Docs {
		if c1.Docs[i].Popularity != c2.Docs[i].Popularity ||
			len(c1.Docs[i].Terms) != len(c2.Docs[i].Terms) {
			t.Fatal("corpus generation not deterministic")
		}
	}
}
